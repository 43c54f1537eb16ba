//! `wire-invariants` — the protocol constant audit.
//!
//! Source of truth: `crates/wire/src/protocol.rs`. The pass extracts
//! every `const NAME: u8 = …;` (public or not) and buckets it:
//!
//! * `mod opcode` → the opcode namespace, split request/reply by the
//!   high bit;
//! * top-level `ANS_*` → the per-query status namespace;
//! * top-level `VERSION` → the protocol version, which must exist;
//! * `mod trace_dump_flags` → flag bits.
//!
//! Checks:
//!
//! 1. **uniqueness** — no two constants in a namespace share a value;
//! 2. **high-bit discipline** — request names < `0x80`, replies ≥;
//! 3. **pairing** — every request has a reply at `0x80 | op`, every
//!    reply (by value) pairs a request, and the paired names agree on
//!    their first `_`-token (`BATCH`/`BATCH_REPLY`); a deliberately
//!    request-less reply (`ERROR`) is `lint.allow` material;
//! 4. **doc matrix** — every opcode and status appears, with the same
//!    value, in RELIABILITY.md's "Opcode and status matrix" tables, and
//!    every matrix row names a real constant;
//! 5. **no re-declaration** — no other scanned crate declares a `u8`
//!    constant with one of these names (same value = drift waiting to
//!    happen, different value = active bug).

use crate::{Diagnostic, Pass, Workspace};

const PROTOCOL: &str = "crates/wire/src/protocol.rs";
const ID: &str = "wire-invariants";

/// One extracted constant.
#[derive(Debug, Clone)]
struct Const {
    name: String,
    value: u16,
    line: usize,
    module: String,
}

/// One `(name, value)` cell parsed from the doc matrix.
#[derive(Debug)]
struct MatrixCell {
    name: String,
    value: u16,
    line: usize,
}

pub struct WireInvariants;

impl Pass for WireInvariants {
    fn id(&self) -> &'static str {
        ID
    }

    fn describe(&self) -> &'static str {
        "opcode/status constants: uniqueness, 0x80|op pairing, doc matrix, VERSION present, no re-declaration"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(file) = ws.file(PROTOCOL) else {
            out.push(Diagnostic {
                file: PROTOCOL.into(),
                line: 0,
                pass: ID,
                key: "missing:protocol".into(),
                message: "protocol source not found — wire pass has nothing to audit".into(),
            });
            return;
        };
        let consts = extract_consts(file);
        let opcodes: Vec<&Const> = consts.iter().filter(|c| c.module == "opcode").collect();
        let statuses: Vec<&Const> = consts
            .iter()
            .filter(|c| c.module.is_empty() && c.name.starts_with("ANS_"))
            .collect();
        let flags: Vec<&Const> = consts
            .iter()
            .filter(|c| c.module == "trace_dump_flags")
            .collect();
        check_unique(ID, &opcodes, "opcode", out);
        check_unique(ID, &statuses, "status", out);
        check_unique(ID, &flags, "trace-dump flag", out);
        check_pairing(&opcodes, out);

        if !consts
            .iter()
            .any(|c| c.module.is_empty() && c.name == "VERSION")
        {
            out.push(Diagnostic {
                file: PROTOCOL.into(),
                line: 0,
                pass: ID,
                key: "version:missing".into(),
                message: "VERSION constant not found".into(),
            });
        }

        check_doc_matrix(ws, &opcodes, &statuses, out);
        check_redeclaration(ws, &consts, out);
    }
}

/// Pulls `const NAME: u8 = 0x..;` declarations with their module path
/// (tracked by brace depth, one level deep is all protocol.rs uses).
fn extract_consts(file: &crate::SourceFile) -> Vec<Const> {
    let mut out = Vec::new();
    let mut module = String::new();
    let mut mod_depth = 0i32;
    let mut depth = 0i32;
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if module.is_empty() {
            if let Some(name) = parse_mod_open(code) {
                module = name;
                mod_depth = depth + 1;
            }
        }
        depth += code.chars().filter(|&c| c == '{').count() as i32;
        depth -= code.chars().filter(|&c| c == '}').count() as i32;
        if !module.is_empty() && depth < mod_depth {
            module.clear();
        }
        if let Some((name, value)) = parse_const(code) {
            out.push(Const {
                name,
                value,
                line: idx + 1,
                module: module.clone(),
            });
        }
    }
    out
}

fn parse_mod_open(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t
        .strip_prefix("pub mod ")
        .or_else(|| t.strip_prefix("mod "))?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && rest[name.len()..].trim_start().starts_with('{')).then_some(name)
}

/// Parses `(pub )?const NAME: u8 = <literal>;` → `(NAME, value)`.
/// Non-literal initializers (e.g. `ALL = SNAPSHOT`) are skipped — they
/// alias, not declare.
fn parse_const(code: &str) -> Option<(String, u16)> {
    let t = code.trim_start();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let rest = t.strip_prefix("const ")?;
    let (name, after) = rest.split_once(':')?;
    let name = name.trim();
    if !name
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    let (ty, init) = after.split_once('=')?;
    if ty.trim() != "u8" {
        return None;
    }
    let literal = init.trim().trim_end_matches(';').trim();
    let value = if let Some(hex) = literal.strip_prefix("0x") {
        u16::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else {
        literal.parse::<u16>().ok()?
    };
    Some((name.to_string(), value))
}

fn check_unique(pass: &'static str, consts: &[&Const], what: &str, out: &mut Vec<Diagnostic>) {
    for (i, a) in consts.iter().enumerate() {
        for b in &consts[i + 1..] {
            if a.value == b.value {
                out.push(Diagnostic {
                    file: PROTOCOL.into(),
                    line: b.line,
                    pass,
                    key: format!("dup:{}", b.name),
                    message: format!(
                        "{} `{}` re-uses value {:#04x} already taken by `{}` (line {})",
                        what, b.name, b.value, a.name, a.line
                    ),
                });
            }
        }
    }
}

fn first_token(name: &str) -> &str {
    name.split('_').next().unwrap_or(name)
}

fn check_pairing(opcodes: &[&Const], out: &mut Vec<Diagnostic>) {
    let requests: Vec<&&Const> = opcodes.iter().filter(|c| c.value < 0x80).collect();
    let replies: Vec<&&Const> = opcodes.iter().filter(|c| c.value >= 0x80).collect();
    for req in &requests {
        match replies.iter().find(|r| r.value == 0x80 | req.value) {
            None => out.push(Diagnostic {
                file: PROTOCOL.into(),
                line: req.line,
                pass: ID,
                key: format!("pair:{}", req.name),
                message: format!(
                    "request `{}` ({:#04x}) has no reply opcode at 0x80|op ({:#04x})",
                    req.name,
                    req.value,
                    0x80 | req.value
                ),
            }),
            Some(rep) if first_token(&rep.name) != first_token(&req.name) => {
                out.push(Diagnostic {
                    file: PROTOCOL.into(),
                    line: req.line,
                    pass: ID,
                    key: format!("pair-name:{}", req.name),
                    message: format!(
                        "request `{}` ({:#04x}) pairs `{}` ({:#04x}) by value, but the names disagree — off-convention pair",
                        req.name, req.value, rep.name, rep.value
                    ),
                });
            }
            Some(_) => {}
        }
    }
    for rep in &replies {
        if !requests.iter().any(|r| r.value == rep.value & 0x7F) {
            out.push(Diagnostic {
                file: PROTOCOL.into(),
                line: rep.line,
                pass: ID,
                key: format!("pair:{}", rep.name),
                message: format!(
                    "reply `{}` ({:#04x}) pairs no request at {:#04x}",
                    rep.name,
                    rep.value,
                    rep.value & 0x7F
                ),
            });
        }
    }
}

/// Parses RELIABILITY.md's matrix section. A table row contributes
/// every `` `NAME` `` cell followed (in the same cell run) by a
/// `` `0xNN` `` cell.
fn parse_doc_matrix(text: &str) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    let mut in_section = false;
    for (idx, raw) in text.lines().enumerate() {
        if let Some(h) = raw.strip_prefix("## ") {
            in_section = h.to_lowercase().contains("opcode and status matrix");
            continue;
        }
        if !in_section || !raw.trim_start().starts_with('|') {
            continue;
        }
        let cols: Vec<&str> = raw.split('|').map(str::trim).collect();
        let mut pending_name: Option<String> = None;
        for col in cols {
            let c = col.trim_matches('`');
            if c.len() > 1
                && c.chars()
                    .all(|ch| ch.is_ascii_uppercase() || ch.is_ascii_digit() || ch == '_')
            {
                pending_name = Some(c.to_string());
            } else if let Some(hex) = c.strip_prefix("0x") {
                if let (Some(name), Ok(value)) = (pending_name.take(), u16::from_str_radix(hex, 16))
                {
                    cells.push(MatrixCell {
                        name,
                        value,
                        line: idx + 1,
                    });
                }
            }
        }
    }
    cells
}

fn check_doc_matrix(
    ws: &Workspace,
    opcodes: &[&Const],
    statuses: &[&Const],
    out: &mut Vec<Diagnostic>,
) {
    let doc = &ws.reliability;
    if !doc.present {
        out.push(Diagnostic {
            file: doc.name.clone(),
            line: 0,
            pass: ID,
            key: "doc:missing".into(),
            message: "RELIABILITY.md not found — opcode matrix cannot be checked".into(),
        });
        return;
    }
    let matrix = parse_doc_matrix(&doc.text);
    if matrix.is_empty() {
        out.push(Diagnostic {
            file: doc.name.clone(),
            line: 0,
            pass: ID,
            key: "doc:matrix-missing".into(),
            message: "no `## Opcode and status matrix` table found in RELIABILITY.md".into(),
        });
        return;
    }
    for c in opcodes.iter().chain(statuses.iter()) {
        match matrix.iter().find(|m| m.name == c.name) {
            None => out.push(Diagnostic {
                file: doc.name.clone(),
                line: 0,
                pass: ID,
                key: format!("doc:{}", c.name),
                message: format!(
                    "`{}` ({:#04x}) is not listed in RELIABILITY.md's opcode/status matrix",
                    c.name, c.value
                ),
            }),
            Some(m) if m.value != c.value => out.push(Diagnostic {
                file: doc.name.clone(),
                line: m.line,
                pass: ID,
                key: format!("doc-value:{}", c.name),
                message: format!(
                    "matrix lists `{}` as {:#04x} but the code declares {:#04x}",
                    c.name, m.value, c.value
                ),
            }),
            Some(_) => {}
        }
    }
    for m in &matrix {
        let known = opcodes
            .iter()
            .chain(statuses.iter())
            .any(|c| c.name == m.name);
        if !known {
            out.push(Diagnostic {
                file: doc.name.clone(),
                line: m.line,
                pass: ID,
                key: format!("doc-stale:{}", m.name),
                message: format!(
                    "matrix row `{}` ({:#04x}) names no opcode/status constant in {PROTOCOL}",
                    m.name, m.value
                ),
            });
        }
    }
}

/// Any other scanned file declaring `const NAME: u8` with a protocol
/// constant's name is drift: same value duplicates the truth, different
/// value contradicts it.
fn check_redeclaration(ws: &Workspace, consts: &[Const], out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if file.path == PROTOCOL {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((name, value)) = parse_const(&line.code) else {
                continue;
            };
            if let Some(original) = consts.iter().find(|c| c.name == name) {
                let verdict = if original.value == value {
                    "duplicates"
                } else {
                    "contradicts"
                };
                out.push(Diagnostic {
                    file: file.path.clone(),
                    line: idx + 1,
                    pass: ID,
                    key: format!("redecl:{name}"),
                    message: format!(
                        "`const {name}: u8 = {value:#04x}` {verdict} the wire constant in {PROTOCOL} ({:#04x}) — import it instead",
                        original.value
                    ),
                });
            }
        }
    }
}
