//! A plain-text circuit format, read and write.
//!
//! LEQA and QSPR "share the same parsers for parsing the inputs" (§4.1);
//! this module is that shared parser. The format is line-based:
//!
//! ```text
//! # ham3-style example
//! .name demo
//! .qubits 3
//! h 0
//! t 1
//! tdg 1
//! cnot 0 1
//! toffoli 0 1 2
//! fredkin 0 1 2
//! mct 0 1 2 3        # last operand is the target
//! mcf 0 1 : 2 3      # controls : swapped pair
//! ```
//!
//! Blank lines and `#` comments are ignored. Qubit indices are 0-based.

use leqa_fabric::OneQubitKind;

use crate::{Circuit, CircuitError, Gate, QubitId};

/// Parses a circuit from the text format.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with a 1-based line number for malformed
/// input, and the underlying validation error (wrapped as a parse error) for
/// semantically invalid gates.
///
/// # Examples
///
/// ```
/// use leqa_circuit::parser;
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let c = parser::parse(".qubits 2\ncnot 0 1\n")?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.gates().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Circuit, CircuitError> {
    let mut circuit: Option<Circuit> = None;
    let mut name: Option<String> = None;
    // Reused from line to line: a line's operand tokens, and its qubits.
    let mut rest: Vec<&str> = Vec::new();
    let mut qubits: Vec<QubitId> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        rest.clear();
        rest.extend(tokens);

        match head {
            ".name" => {
                name = Some(rest.join(" "));
            }
            ".qubits" => {
                let n = parse_count(&rest, line_no)?;
                let mut c = Circuit::new(n);
                if let Some(n) = name.take() {
                    c.set_name(n);
                }
                circuit = Some(c);
            }
            _ => {
                let c = circuit.as_mut().ok_or_else(|| CircuitError::Parse {
                    line: line_no,
                    message: "gate before `.qubits` declaration".into(),
                })?;
                let gate = parse_gate(head, &rest, &mut qubits, line_no)?;
                c.push(gate).map_err(wrap(line_no))?;
            }
        }
    }

    circuit.ok_or(CircuitError::Parse {
        line: 0,
        message: "missing `.qubits` declaration".into(),
    })
}

fn parse_count(rest: &[&str], line: usize) -> Result<u32, CircuitError> {
    if rest.len() != 1 {
        return Err(CircuitError::Parse {
            line,
            message: "`.qubits` takes exactly one argument".into(),
        });
    }
    rest[0].parse().map_err(|_| CircuitError::Parse {
        line,
        message: format!("invalid qubit count `{}`", rest[0]),
    })
}

/// Parses `tokens` as qubit indices into `out` (cleared first).
fn parse_qubits<'q>(
    tokens: &[&str],
    line: usize,
    out: &'q mut Vec<QubitId>,
) -> Result<&'q [QubitId], CircuitError> {
    out.clear();
    for t in tokens {
        let q = t.parse::<u32>().map_err(|_| CircuitError::Parse {
            line,
            message: format!("invalid qubit index `{t}`"),
        })?;
        out.push(QubitId(q));
    }
    Ok(out)
}

fn arity_error(head: &str, want: usize, got: usize, line: usize) -> CircuitError {
    CircuitError::Parse {
        line,
        message: format!("`{head}` takes {want} operand(s), got {got}"),
    }
}

fn wrap(line: usize) -> impl Fn(CircuitError) -> CircuitError {
    move |e| CircuitError::Parse {
        line,
        message: e.to_string(),
    }
}

/// The gate forms of the text format.
#[derive(Debug, Clone, Copy)]
enum Form {
    OneQubit(OneQubitKind),
    Cnot,
    Toffoli,
    Fredkin,
    Mct,
    Mcf,
}

impl Form {
    /// The form a mnemonic names, in any letter case.
    fn of(mnemonic: &str) -> Option<Form> {
        // The longest mnemonics (`toffoli`, `fredkin`) have seven letters.
        let mut buf = [0u8; 7];
        let lower = buf.get_mut(..mnemonic.len())?;
        lower.copy_from_slice(mnemonic.as_bytes());
        lower.make_ascii_lowercase();
        Some(match &*lower {
            b"h" => Form::OneQubit(OneQubitKind::H),
            b"t" => Form::OneQubit(OneQubitKind::T),
            b"tdg" | b"t+" => Form::OneQubit(OneQubitKind::Tdg),
            b"s" => Form::OneQubit(OneQubitKind::S),
            b"sdg" | b"s+" => Form::OneQubit(OneQubitKind::Sdg),
            b"x" | b"not" => Form::OneQubit(OneQubitKind::X),
            b"y" => Form::OneQubit(OneQubitKind::Y),
            b"z" => Form::OneQubit(OneQubitKind::Z),
            b"cnot" => Form::Cnot,
            b"toffoli" => Form::Toffoli,
            b"fredkin" => Form::Fredkin,
            b"mct" => Form::Mct,
            b"mcf" => Form::Mcf,
            _ => return None,
        })
    }
}

fn parse_gate(
    head: &str,
    rest: &[&str],
    buf: &mut Vec<QubitId>,
    line: usize,
) -> Result<Gate, CircuitError> {
    let form = Form::of(head).ok_or_else(|| CircuitError::Parse {
        line,
        message: format!("unknown gate `{}`", head.to_ascii_lowercase()),
    })?;
    let exactly = |want: usize, qs: &[QubitId]| {
        if qs.len() == want {
            Ok(())
        } else {
            Err(arity_error(head, want, qs.len(), line))
        }
    };

    match form {
        Form::OneQubit(kind) => {
            let qs = parse_qubits(rest, line, buf)?;
            exactly(1, qs)?;
            Ok(Gate::one_qubit(kind, qs[0]))
        }
        Form::Cnot => {
            let qs = parse_qubits(rest, line, buf)?;
            exactly(2, qs)?;
            Gate::cnot(qs[0], qs[1]).map_err(wrap(line))
        }
        Form::Toffoli => {
            let qs = parse_qubits(rest, line, buf)?;
            exactly(3, qs)?;
            Gate::toffoli(qs[0], qs[1], qs[2]).map_err(wrap(line))
        }
        Form::Fredkin => {
            let qs = parse_qubits(rest, line, buf)?;
            exactly(3, qs)?;
            Gate::fredkin(qs[0], qs[1], qs[2]).map_err(wrap(line))
        }
        Form::Mct => {
            let qs = parse_qubits(rest, line, buf)?;
            if qs.len() < 2 {
                return Err(arity_error(head, 2, qs.len(), line));
            }
            let (target, controls) = qs.split_last().expect("checked length");
            Gate::mct(controls.to_vec(), *target).map_err(wrap(line))
        }
        Form::Mcf => {
            let sep = rest
                .iter()
                .position(|&t| t == ":")
                .ok_or(CircuitError::Parse {
                    line,
                    message: "`mcf` needs `controls : a b`".into(),
                })?;
            let controls = parse_qubits(&rest[..sep], line, buf)?.to_vec();
            let targets = parse_qubits(&rest[sep + 1..], line, buf)?;
            if targets.len() != 2 {
                return Err(CircuitError::Parse {
                    line,
                    message: "`mcf` needs exactly two swapped wires".into(),
                });
            }
            Gate::mcf(controls, targets[0], targets[1]).map_err(wrap(line))
        }
    }
}

/// Renders a circuit back to the text format; `parse(&write(c))` round-trips.
pub fn write(circuit: &Circuit) -> String {
    // Most gate lines are a short mnemonic and two or three indices.
    let mut out = Vec::with_capacity(32 + 16 * circuit.gates().len());
    if let Some(name) = circuit.name() {
        out.extend_from_slice(b".name ");
        out.extend_from_slice(name.as_bytes());
        out.push(b'\n');
    }
    out.extend_from_slice(b".qubits");
    push_indices(&mut out, &[circuit.num_qubits()]);
    for gate in circuit.gates() {
        match gate {
            Gate::OneQubit { kind, target } => {
                out.extend_from_slice(match kind {
                    OneQubitKind::H => b"h",
                    OneQubitKind::T => b"t",
                    OneQubitKind::Tdg => b"tdg",
                    OneQubitKind::S => b"s",
                    OneQubitKind::Sdg => b"sdg",
                    OneQubitKind::X => b"x",
                    OneQubitKind::Y => b"y",
                    OneQubitKind::Z => b"z",
                });
                push_indices(&mut out, &[target.0]);
            }
            Gate::Cnot { control, target } => {
                out.extend_from_slice(b"cnot");
                push_indices(&mut out, &[control.0, target.0]);
            }
            Gate::Toffoli { c1, c2, target } => {
                out.extend_from_slice(b"toffoli");
                push_indices(&mut out, &[c1.0, c2.0, target.0]);
            }
            Gate::Fredkin { control, a, b } => {
                out.extend_from_slice(b"fredkin");
                push_indices(&mut out, &[control.0, a.0, b.0]);
            }
            Gate::Mct { controls, target } => {
                out.extend_from_slice(b"mct ");
                push_list(&mut out, controls);
                push_indices(&mut out, &[target.0]);
            }
            Gate::Mcf { controls, a, b } => {
                out.extend_from_slice(b"mcf ");
                push_list(&mut out, controls);
                out.extend_from_slice(b" :");
                push_indices(&mut out, &[a.0, b.0]);
            }
        }
    }
    String::from_utf8(out).expect("ASCII around a UTF-8 name")
}

/// Appends ` i` for each index, then ends the line.
fn push_indices(out: &mut Vec<u8>, indices: &[u32]) {
    for &i in indices {
        out.push(b' ');
        push_u32(out, i);
    }
    out.push(b'\n');
}

/// Appends a space-separated qubit list, with no leading or trailing space.
fn push_list(out: &mut Vec<u8>, qubits: &[QubitId]) {
    for (k, q) in qubits.iter().enumerate() {
        if k > 0 {
            out.push(b' ');
        }
        push_u32(out, q.0);
    }
}

/// Appends `v` in decimal.
fn push_u32(out: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_gate_forms() {
        let text = "\
# full alphabet
.name alphabet
.qubits 6
h 0
t 1
tdg 2
s 3
sdg 4
x 5
y 0
z 1
not 2
cnot 0 1
toffoli 0 1 2
fredkin 0 1 2
mct 0 1 2 3
mcf 0 1 : 2 3
";
        let c = parse(text).unwrap();
        assert_eq!(c.name(), Some("alphabet"));
        assert_eq!(c.num_qubits(), 6);
        assert_eq!(c.gates().len(), 14);
    }

    #[test]
    fn roundtrip() {
        let text = "\
.name rt
.qubits 5
tdg 0
sdg 1
cnot 0 1
toffoli 0 1 2
fredkin 2 3 4
mct 0 1 2 4
mcf 0 1 : 3 4
";
        let c = parse(text).unwrap();
        let c2 = parse(&write(&c)).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn error_has_line_number() {
        let err = parse(".qubits 2\nbogus 0\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }));
    }

    #[test]
    fn gate_before_header_is_rejected() {
        let err = parse("cnot 0 1\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 1, .. }));
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = parse("# nothing\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 0, .. }));
    }

    #[test]
    fn out_of_range_is_a_parse_error_with_location() {
        let err = parse(".qubits 2\ncnot 0 5\n").unwrap_err();
        match err {
            CircuitError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("out of range"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_errors() {
        assert!(parse(".qubits 3\ncnot 0\n").is_err());
        assert!(parse(".qubits 3\ntoffoli 0 1\n").is_err());
        assert!(parse(".qubits 3\nh 0 1\n").is_err());
        assert!(parse(".qubits 3\nmcf 0 1 2\n").is_err()); // missing `:`
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = parse("\n# hi\n.qubits 1\n\nx 0 # inline\n").unwrap();
        assert_eq!(c.gates().len(), 1);
    }
}
