//! Golden-bytes tests: every opcode, status byte, and frame layout of
//! the protocol, pinned as literal byte arrays.
//!
//! Round-trip tests prove encode and parse agree with *each other*;
//! only a byte-literal test proves they agree with the *protocol* — a
//! matched encode/parse bug (reordered fields, flipped endianness, a
//! different checksum polynomial, a swapped trace-id half) round-trips
//! clean and would ship a silent wire break. Each array below was
//! written out by hand from the layouts documented in `protocol.rs`
//! (the FNV-1a-32 trailers were computed once, offline, from the
//! preceding literal bytes). If an edit changes any of these bytes, it
//! changes the protocol and must bump [`VERSION`].

use pl_obs::TraceContext;
use pl_wire::protocol::{
    checksum, encode_batch, encode_batch_ctx, encode_batch_reply, encode_health_reply,
    encode_hello, encode_hello_ok, encode_labels, encode_labels_ok, encode_map_get, encode_map_ok,
    encode_map_reply, encode_map_set, encode_stats_reply, encode_trace_dump, opcode, parse_batch,
    parse_batch_ctx, parse_batch_reply, parse_health_reply, parse_hello, parse_hello_ok,
    parse_labels, parse_labels_ok, parse_map_get, parse_map_ok, parse_map_reply, parse_map_set,
    parse_stats_reply, parse_trace_dump, trace_dump_flags, LabelsStatus, MapSetMode, MapSetRequest,
    MapSetStatus, ProtocolError, EXT_TRACE_CTX, MAP_TARGET_ROUTER, VERSION,
};
use pl_wire::{Answer, HealthReport, Query, Snapshot};

/// The version byte, and every opcode value. Each request's reply sits
/// at `0x80 | op`; `OVERLOADED` and `ERROR` answer no request.
#[test]
fn version_and_opcode_values() {
    assert_eq!(VERSION, 7);
    #[rustfmt::skip]
    let pairs = [
        (opcode::HELLO,      0x00, opcode::HELLO_OK,     0x80),
        (opcode::BATCH,      0x01, opcode::BATCH_REPLY,  0x81),
        (opcode::STATS,      0x02, opcode::STATS_REPLY,  0x82),
        (opcode::GOODBYE,    0x03, opcode::GOODBYE_OK,   0x83),
        (opcode::TRACE_DUMP, 0x04, opcode::TRACE_REPLY,  0x84),
        (opcode::HEALTH,     0x05, opcode::HEALTH_REPLY, 0x85),
        (opcode::MAP_GET,    0x06, opcode::MAP_REPLY,    0x86),
        (opcode::MAP_SET,    0x07, opcode::MAP_OK,       0x87),
        (opcode::LABELS,     0x08, opcode::LABELS_OK,    0x88),
    ];
    for (request, req_value, reply, reply_value) in pairs {
        assert_eq!(request, req_value);
        assert_eq!(reply, reply_value);
        assert_eq!(reply, 0x80 | request);
    }
    assert_eq!(opcode::OVERLOADED, 0x8E);
    assert_eq!(opcode::ERROR, 0x8F);
    assert_eq!(EXT_TRACE_CTX, b'T');
}

/// Every per-query status byte, as it lands at offset 3 of a
/// one-answer `BATCH_REPLY`.
#[test]
fn answer_status_bytes() {
    #[rustfmt::skip]
    let statuses = [
        (Answer::NotAdjacent,    0x00),
        (Answer::Adjacent,       0x01),
        (Answer::Distance(0),    0x02),
        (Answer::Unreachable,    0x03),
        (Answer::NotOwned,       0xFA),
        (Answer::Overloaded,     0xFB),
        (Answer::MalformedLabel, 0xFC),
        (Answer::OutOfRange,     0xFD),
        (Answer::Unsupported,    0xFE),
    ];
    for (answer, byte) in statuses {
        let body = encode_batch_reply(&[answer], VERSION);
        assert_eq!(body[3], byte, "{answer:?} status byte");
        assert_eq!(parse_batch_reply(&body, VERSION).unwrap(), [answer]);
    }
}

/// HELLO: opcode, `"PLSV"`, version. HELLO_OK: opcode, version, scheme
/// tag, n. Any other offered version is refused by name.
#[test]
fn hello_golden_bytes() {
    assert_eq!(encode_hello(), [0x00, b'P', b'L', b'S', b'V', 0x07]);
    assert_eq!(parse_hello(&[0x00, b'P', b'L', b'S', b'V', 0x07]), Ok(()));
    for offered in [6, 8] {
        let err = parse_hello(&[0x00, b'P', b'L', b'S', b'V', offered]).unwrap_err();
        assert_eq!(err, ProtocolError::UnsupportedVersion(offered));
        assert_eq!(
            err.to_string(),
            format!("unsupported protocol version {offered}")
        );
    }

    #[rustfmt::skip]
    let hello_ok: &[u8] = &[
        0x80,                   // opcode HELLO_OK
        0x07,                   // VERSION
        0x01,                   // scheme tag
        0x08, 0x00, 0x00, 0x00, // n = 8, u32 LE
    ];
    assert_eq!(encode_hello_ok(1, 8), hello_ok);
    assert_eq!(parse_hello_ok(hello_ok), Ok((1, 8)));
}

const CTX: TraceContext = TraceContext {
    trace_hi: 0x1122_3344_5566_7788,
    trace_lo: 0x99AA_BBCC_DDEE_FF00,
    parent_span: 0x0123_4567_89AB_CDEF,
};

/// BATCH: opcode, count, `count ×` (kind, u, v); with a trace context,
/// then `'T'` and three u64 LE words (trace hi, trace lo, parent span).
#[test]
fn batch_golden_bytes() {
    let queries = [Query::adjacent(0x0102_0304, 0x0A0B_0C0D)];
    #[rustfmt::skip]
    let plain: &[u8] = &[
        0x01,                   // opcode BATCH
        0x01, 0x00,             // 1 query, u16 LE
        0x00,                   // kind Adjacent
        0x04, 0x03, 0x02, 0x01, // u = 0x01020304, u32 LE
        0x0D, 0x0C, 0x0B, 0x0A, // v = 0x0A0B0C0D, u32 LE
    ];
    assert_eq!(encode_batch(&queries).unwrap(), plain);
    assert_eq!(encode_batch_ctx(&queries, None, VERSION).unwrap(), plain);
    assert_eq!(
        parse_batch_ctx(plain, VERSION).unwrap(),
        (queries.to_vec(), None)
    );

    let mut traced = plain.to_vec();
    #[rustfmt::skip]
    traced.extend_from_slice(&[
        0x54,                                           // EXT_TRACE_CTX ('T')
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // trace_hi LE
        0x00, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, // trace_lo LE
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // parent_span LE
    ]);
    assert_eq!(
        encode_batch_ctx(&queries, Some(&CTX), VERSION).unwrap(),
        traced,
        "TRACE_CTX trailer layout drifted"
    );
    assert_eq!(
        parse_batch_ctx(&traced, VERSION).unwrap(),
        (queries.to_vec(), Some(CTX))
    );
    // The context-free parse rejects the trailer: its length check is
    // exact.
    assert_eq!(
        parse_batch(&traced),
        Err(ProtocolError::Malformed("batch length"))
    );
}

/// BATCH_REPLY: `0x81 | count u16 LE | status bytes | FNV-1a-32 LE of
/// everything before it`.
#[test]
fn batch_reply_golden_bytes() {
    let answers = [
        Answer::Adjacent,
        Answer::NotAdjacent,
        Answer::Distance(0x0102_0304),
        Answer::Overloaded,
    ];
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x81,                   // opcode BATCH_REPLY
        0x04, 0x00,             // 4 answers, u16 LE
        0x01,                   // Adjacent
        0x00,                   // NotAdjacent
        0x02,                   // Distance tag...
        0x04, 0x03, 0x02, 0x01, // ...payload 0x01020304, u32 LE
        0xFB,                   // Overloaded
        0xEE, 0x6E, 0xBF, 0x5F, // FNV-1a-32 = 0x5FBF6EEE, LE
    ];
    assert_eq!(encode_batch_reply(&answers, VERSION), expected);
    assert_eq!(parse_batch_reply(expected, VERSION).unwrap(), answers);
    // The pinned checksum really is FNV-1a over the pinned payload.
    let (payload, sum) = expected.split_at(expected.len() - 4);
    assert_eq!(checksum(payload), 0x5FBF_6EEE);
    assert_eq!(u32::from_le_bytes(sum.try_into().unwrap()), 0x5FBF_6EEE);

    let answers = [Answer::NotOwned, Answer::Adjacent, Answer::OutOfRange];
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x81,                   // opcode BATCH_REPLY
        0x03, 0x00,             // 3 answers, u16 LE
        0xFA,                   // NotOwned
        0x01,                   // Adjacent
        0xFD,                   // OutOfRange
        0x3D, 0xC3, 0x1D, 0x9B, // FNV-1a-32 = 0x9B1DC33D, LE
    ];
    assert_eq!(encode_batch_reply(&answers, VERSION), expected);
    assert_eq!(parse_batch_reply(expected, VERSION).unwrap(), answers);
}

/// A corrupted reply must fail the checksum, not mis-parse: flip every
/// byte of a reply in turn and demand rejection.
#[test]
fn batch_reply_rejects_every_single_byte_flip() {
    let good = encode_batch_reply(&[Answer::Adjacent, Answer::Distance(7)], VERSION);
    assert_eq!(parse_batch_reply(&good, VERSION).unwrap().len(), 2);
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[i] ^= flip;
            assert!(
                parse_batch_reply(&bad, VERSION).is_err(),
                "flip 0x{flip:02X} at byte {i} parsed"
            );
        }
    }
}

/// STATS_REPLY: `0x82`, 18 fixed u64 LE words (the last one the shard
/// count), two words per shard, then the three-word resilience trailer
/// — faults injected, conns shed, open conns — in exactly that order.
#[test]
fn stats_reply_golden_bytes() {
    let snap = Snapshot {
        adj_queries: 0x0101,
        dist_queries: 0x0202,
        batches: 0x0303,
        connections: 0x0404,
        cache_hits: 0x0505,
        cache_misses: 0x0606,
        bytes_in: 0x0707,
        bytes_out: 0x0808,
        protocol_errors: 0x0909,
        p50_ns: 0x0A0A,
        p90_ns: 0x0B0B,
        p99_ns: 0x0C0C,
        p999_ns: 0x0D0D,
        min_ns: 0x0E0E,
        max_ns: 0x0F0F,
        qps_milli: 0x1010,
        slow_queries: 0x1111,
        shard_cache: vec![(0x2121, 0x2222), (0x2323, 0x2424)],
        faults_injected: 0x3131,
        shed: 0x3232,
        open_conns: 0x3333,
    };
    #[rustfmt::skip]
    let words: &[u64] = &[
        0x0101, 0x0202, 0x0303, 0x0404,     // adj, dist, batches, conns
        0x0505, 0x0606,                     // cache hits, misses
        0x0707, 0x0808, 0x0909,             // bytes in, bytes out, proto errs
        0x0A0A, 0x0B0B, 0x0C0C, 0x0D0D,     // p50, p90, p99, p999
        0x0E0E, 0x0F0F,                     // min, max
        0x1010, 0x1111,                     // qps_milli, slow queries
        2,                                  // shard count
        0x2121, 0x2222, 0x2323, 0x2424,     // (hits, misses) per shard
        0x3131, 0x3232, 0x3333,             // trailer: faults, shed, open
    ];
    let mut expected = vec![0x82u8]; // opcode STATS_REPLY
    for w in words {
        expected.extend_from_slice(&w.to_le_bytes());
    }
    assert_eq!(expected.len(), 1 + (18 + 2 * 2 + 3) * 8);
    assert_eq!(encode_stats_reply(&snap), expected);
    assert_eq!(parse_stats_reply(&expected).unwrap(), snap);
    // Without its trailer the body is malformed, not a shorter layout.
    assert!(parse_stats_reply(&expected[..expected.len() - 3 * 8]).is_err());
}

/// TRACE_DUMP: the bare body is one byte (consuming drain); the
/// snapshot form appends exactly one flag byte.
#[test]
fn trace_dump_golden_bytes() {
    assert_eq!(encode_trace_dump(0), [0x04]);
    assert_eq!(
        encode_trace_dump(trace_dump_flags::SNAPSHOT),
        [0x04, 0x01] // opcode TRACE_DUMP, SNAPSHOT flag
    );
    assert_eq!(parse_trace_dump(&[0x04]).unwrap(), 0);
    assert_eq!(parse_trace_dump(&[0x04, 0x01]).unwrap(), 0x01);
    // Unknown flag bits must be rejected, not ignored: a client would
    // otherwise silently get consuming-drain semantics.
    assert!(parse_trace_dump(&[0x04, 0x02]).is_err());
}

/// HEALTH_REPLY: opcode, healthy byte, shard count u16 LE, one flag
/// byte per shard.
#[test]
fn health_reply_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x85,       // opcode HEALTH_REPLY
        0x00,       // not every shard is live
        0x03, 0x00, // 3 shards, u16 LE
        0x01, 0x00, 0x01,
    ];
    assert_eq!(encode_health_reply(&[true, false, true]), expected);
    assert_eq!(
        parse_health_reply(expected).unwrap(),
        HealthReport {
            healthy: false,
            shards: vec![true, false, true],
        }
    );
    assert_eq!(encode_health_reply(&[true]), [0x85, 0x01, 0x01, 0x00, 0x01]);
}

/// A hand-written, checksummed `ClusterMap` blob: epoch 2, seed 3,
/// 1 replica, n = 5, tag 2, one backend `"a:1"`. The wire layer only
/// validates this structurally, but the bytes pin the `.plcm` layout
/// the map opcodes carry.
#[rustfmt::skip]
const MAP_BLOB: &[u8] = &[
    b'P', b'L', b'C', b'M',                         // magic
    0x01,                                           // map version 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 2, u64 LE
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seed = 3, u64 LE
    0x01, 0x00, 0x00, 0x00,                         // replicas = 1, u32 LE
    0x05, 0x00, 0x00, 0x00,                         // n = 5, u32 LE
    0x02,                                           // scheme tag
    0x01, 0x00,                                     // 1 backend, u16 LE
    0x03, 0x00,                                     // address length, u16 LE
    b'a', b':', b'1',                               // "a:1"
    0xEB, 0xCB, 0xFB, 0xE8,                         // FNV-1a-32 of the above, LE
];

#[test]
fn map_get_golden_bytes() {
    assert_eq!(encode_map_get(), [0x06]);
    assert!(parse_map_get(&[0x06]).is_ok());
    // Strictly opcode-only: a trailing byte is a malformed frame, not
    // slack for a future field.
    assert!(parse_map_get(&[0x06, 0x00]).is_err());
}

#[test]
fn map_reply_golden_bytes() {
    // No map: opcode + absent presence byte.
    assert_eq!(encode_map_reply(None), [0x86, 0x00]);
    assert_eq!(parse_map_reply(&[0x86, 0x00]).unwrap(), None);

    // Present map: opcode, presence byte, then the blob verbatim.
    let mut expected = vec![0x86, 0x01];
    expected.extend_from_slice(MAP_BLOB);
    assert_eq!(encode_map_reply(Some(MAP_BLOB)), expected);
    assert_eq!(parse_map_reply(&expected).unwrap(), Some(MAP_BLOB.to_vec()));

    // A flipped bit inside the blob fails the blob's own checksum.
    let mut tampered = expected.clone();
    tampered[10] ^= 0x40;
    assert!(matches!(
        parse_map_reply(&tampered),
        Err(ProtocolError::ChecksumMismatch)
    ));
}

/// MAP_SET: opcode, mode byte, backend u32, moved u64, then the blob.
#[test]
fn map_set_golden_bytes() {
    #[rustfmt::skip]
    let mut expected = vec![
        0x07,                   // opcode MAP_SET
        0x01,                   // mode Commit
        0xFF, 0xFF, 0xFF, 0xFF, // backend = MAP_TARGET_ROUTER, u32 LE
        0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // moved = 0x0102, u64 LE
    ];
    expected.extend_from_slice(MAP_BLOB);
    assert_eq!(
        encode_map_set(MapSetMode::Commit, MAP_TARGET_ROUTER, 0x0102, MAP_BLOB).unwrap(),
        expected,
        "MAP_SET layout drifted"
    );
    assert_eq!(
        parse_map_set(&expected).unwrap(),
        MapSetRequest {
            mode: MapSetMode::Commit,
            backend: MAP_TARGET_ROUTER,
            moved: 0x0102,
            map: MAP_BLOB.to_vec(),
        }
    );

    // The four mode bytes are pinned; byte 4 is not a mode.
    for (mode, byte) in [
        (MapSetMode::Prepare, 0x00),
        (MapSetMode::Commit, 0x01),
        (MapSetMode::Abort, 0x02),
        (MapSetMode::Shrink, 0x03),
    ] {
        let body = encode_map_set(mode, 0, 0, MAP_BLOB).unwrap();
        assert_eq!(body[1], byte, "{mode:?} mode byte");
    }
    let mut bad_mode = expected.clone();
    bad_mode[1] = 0x04;
    assert!(parse_map_set(&bad_mode).is_err());
}

/// MAP_OK: opcode, status byte, the receiver's current epoch.
#[test]
fn map_ok_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x87,                   // opcode MAP_OK
        0x04,                   // status Stale
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 9, u64 LE
    ];
    assert_eq!(encode_map_ok(MapSetStatus::Stale, 9), expected);
    assert_eq!(parse_map_ok(expected).unwrap(), (MapSetStatus::Stale, 9));

    // All seven status bytes are pinned; byte 7 is not a status.
    for (status, byte) in [
        (MapSetStatus::Prepared, 0x00),
        (MapSetStatus::Committed, 0x01),
        (MapSetStatus::Aborted, 0x02),
        (MapSetStatus::Shrunk, 0x03),
        (MapSetStatus::Stale, 0x04),
        (MapSetStatus::Unsupported, 0x05),
        (MapSetStatus::Failed, 0x06),
    ] {
        assert_eq!(encode_map_ok(status, 0)[1], byte, "{status:?} status byte");
    }
    assert!(parse_map_ok(&[0x87, 0x07, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
}

/// LABELS: opcode, epoch, count, `count ×` (vertex, length, bytes),
/// then an FNV-1a-32 checksum of every preceding body byte.
#[test]
fn labels_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x08,                   // opcode LABELS
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 7, u64 LE
        0x01, 0x00,             // 1 entry, u16 LE
        0x04, 0x03, 0x02, 0x01, // vertex = 0x01020304, u32 LE
        0x02, 0x00, 0x00, 0x00, // label length = 2, u32 LE
        0xAA, 0xBB,             // label record bytes
        0x30, 0xE5, 0x8C, 0x8E, // FNV-1a-32 of the above, LE
    ];
    assert_eq!(
        encode_labels(7, &[(0x0102_0304, &[0xAA, 0xBB])]).unwrap(),
        expected,
        "LABELS layout drifted"
    );
    let (epoch, entries) = parse_labels(expected).unwrap();
    assert_eq!(epoch, 7);
    assert_eq!(entries, vec![(0x0102_0304, vec![0xAA, 0xBB])]);

    // A single flipped label bit fails the trailing checksum — the
    // tamper-evidence migration pushes rely on.
    let mut tampered = expected.to_vec();
    tampered[19] ^= 0x01; // 0xAA -> 0xAB
    assert!(matches!(
        parse_labels(&tampered),
        Err(ProtocolError::ChecksumMismatch)
    ));
}

/// LABELS_OK: opcode, status byte, labels buffered so far this epoch.
#[test]
fn labels_ok_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x88,                   // opcode LABELS_OK
        0x00,                   // status Ok
        0x03, 0x00, 0x00, 0x00, // received = 3, u32 LE
    ];
    assert_eq!(encode_labels_ok(LabelsStatus::Ok, 3), expected);
    assert_eq!(parse_labels_ok(expected).unwrap(), (LabelsStatus::Ok, 3));

    for (status, byte) in [
        (LabelsStatus::Ok, 0x00),
        (LabelsStatus::WrongEpoch, 0x01),
        (LabelsStatus::Rejected, 0x02),
        (LabelsStatus::Unsupported, 0x03),
    ] {
        assert_eq!(
            encode_labels_ok(status, 0)[1],
            byte,
            "{status:?} status byte"
        );
    }
    assert!(parse_labels_ok(&[0x88, 0x04, 0, 0, 0, 0]).is_err());
}
