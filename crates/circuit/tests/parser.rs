//! The circuit text codec against a reference: straightforward copies of
//! an allocating `parse` and `write` (per-line token vectors, lowercased
//! mnemonics, `format!`-built lines). The codec must write the same bytes
//! and parse to the same circuit or the same error, line and message.

use leqa_circuit::{parser, Circuit, CircuitError, Gate, OneQubitKind, QubitId};

// ── The reference codec ─────────────────────────────────────────────────

fn reference_parse(text: &str) -> Result<Circuit, CircuitError> {
    let mut circuit: Option<Circuit> = None;
    let mut name: Option<String> = None;
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
        let head = tokens.next().unwrap();
        let rest: Vec<&str> = tokens.collect();
        match head {
            ".name" => name = Some(rest.join(" ")),
            ".qubits" => {
                if rest.len() != 1 {
                    return Err(parse_error(line_no, "`.qubits` takes exactly one argument"));
                }
                let n = rest[0].parse().map_err(|_| {
                    parse_error(line_no, &format!("invalid qubit count `{}`", rest[0]))
                })?;
                let mut c = Circuit::new(n);
                if let Some(n) = name.take() {
                    c.set_name(n);
                }
                circuit = Some(c);
            }
            _ => {
                let c = circuit
                    .as_mut()
                    .ok_or_else(|| parse_error(line_no, "gate before `.qubits` declaration"))?;
                let gate = reference_gate(head, &rest, line_no)?;
                c.push(gate)
                    .map_err(|e| parse_error(line_no, &e.to_string()))?;
            }
        }
    }
    circuit.ok_or(parse_error(0, "missing `.qubits` declaration"))
}

fn parse_error(line: usize, message: &str) -> CircuitError {
    CircuitError::Parse {
        line,
        message: message.to_string(),
    }
}

fn reference_qubits(rest: &[&str], line: usize) -> Result<Vec<QubitId>, CircuitError> {
    rest.iter()
        .map(|t| {
            t.parse::<u32>()
                .map(QubitId)
                .map_err(|_| parse_error(line, &format!("invalid qubit index `{t}`")))
        })
        .collect()
}

fn reference_gate(head: &str, rest: &[&str], line: usize) -> Result<Gate, CircuitError> {
    let arity = |want: usize, got: usize| {
        parse_error(
            line,
            &format!("`{head}` takes {want} operand(s), got {got}"),
        )
    };
    let wrap = |e: CircuitError| parse_error(line, &e.to_string());
    let one_qubit = |kind: OneQubitKind| {
        let qs = reference_qubits(rest, line)?;
        if qs.len() != 1 {
            return Err(arity(1, qs.len()));
        }
        Ok(Gate::one_qubit(kind, qs[0]))
    };
    match head.to_ascii_lowercase().as_str() {
        "h" => one_qubit(OneQubitKind::H),
        "t" => one_qubit(OneQubitKind::T),
        "tdg" | "t+" => one_qubit(OneQubitKind::Tdg),
        "s" => one_qubit(OneQubitKind::S),
        "sdg" | "s+" => one_qubit(OneQubitKind::Sdg),
        "x" | "not" => one_qubit(OneQubitKind::X),
        "y" => one_qubit(OneQubitKind::Y),
        "z" => one_qubit(OneQubitKind::Z),
        "cnot" => {
            let qs = reference_qubits(rest, line)?;
            if qs.len() != 2 {
                return Err(arity(2, qs.len()));
            }
            Gate::cnot(qs[0], qs[1]).map_err(wrap)
        }
        "toffoli" | "fredkin" => {
            let qs = reference_qubits(rest, line)?;
            if qs.len() != 3 {
                return Err(arity(3, qs.len()));
            }
            if head.eq_ignore_ascii_case("toffoli") {
                Gate::toffoli(qs[0], qs[1], qs[2]).map_err(wrap)
            } else {
                Gate::fredkin(qs[0], qs[1], qs[2]).map_err(wrap)
            }
        }
        "mct" => {
            let qs = reference_qubits(rest, line)?;
            if qs.len() < 2 {
                return Err(arity(2, qs.len()));
            }
            let (target, controls) = qs.split_last().unwrap();
            Gate::mct(controls.to_vec(), *target).map_err(wrap)
        }
        "mcf" => {
            let sep = rest
                .iter()
                .position(|&t| t == ":")
                .ok_or_else(|| parse_error(line, "`mcf` needs `controls : a b`"))?;
            let controls = reference_qubits(&rest[..sep], line)?;
            let targets = reference_qubits(&rest[sep + 1..], line)?;
            if targets.len() != 2 {
                return Err(parse_error(line, "`mcf` needs exactly two swapped wires"));
            }
            Gate::mcf(controls, targets[0], targets[1]).map_err(wrap)
        }
        other => Err(parse_error(line, &format!("unknown gate `{other}`"))),
    }
}

fn reference_write(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(name) = circuit.name() {
        let _ = writeln!(out, ".name {name}");
    }
    let _ = writeln!(out, ".qubits {}", circuit.num_qubits());
    let list = |qs: &[QubitId]| {
        qs.iter()
            .map(|q| q.0.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    for gate in circuit.gates() {
        let _ = match gate {
            Gate::OneQubit { kind, target } => {
                let mnemonic = match kind {
                    OneQubitKind::Tdg => "tdg".to_string(),
                    OneQubitKind::Sdg => "sdg".to_string(),
                    k => k.mnemonic().to_ascii_lowercase(),
                };
                writeln!(out, "{mnemonic} {}", target.0)
            }
            Gate::Cnot { control, target } => writeln!(out, "cnot {} {}", control.0, target.0),
            Gate::Toffoli { c1, c2, target } => {
                writeln!(out, "toffoli {} {} {}", c1.0, c2.0, target.0)
            }
            Gate::Fredkin { control, a, b } => {
                writeln!(out, "fredkin {} {} {}", control.0, a.0, b.0)
            }
            Gate::Mct { controls, target } => {
                writeln!(out, "mct {} {}", list(controls), target.0)
            }
            Gate::Mcf { controls, a, b } => {
                writeln!(out, "mcf {} : {} {}", list(controls), a.0, b.0)
            }
            other => panic!("no text form for {other:?}"),
        };
    }
    out
}

// ── Seeded circuits ─────────────────────────────────────────────────────

/// SplitMix64: a dependency-free seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct wires of `0..wires`, in random order.
    fn wires(&mut self, wires: u32, k: usize) -> Vec<QubitId> {
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let q = QubitId(self.below(wires as usize) as u32);
            if !picked.contains(&q) {
                picked.push(q);
            }
        }
        picked
    }
}

/// A random circuit using every gate form, with wide indices on some
/// seeds and a `.name` header on most.
fn random_circuit(rng: &mut SplitMix) -> Circuit {
    let wires = if rng.below(4) == 0 {
        u32::MAX - rng.below(1000) as u32
    } else {
        8 + rng.below(40) as u32
    };
    let mut c = match rng.below(4) {
        0 => Circuit::new(wires),
        1 => Circuit::with_name(wires, "two words"),
        _ => Circuit::with_name(wires, format!("c{}", rng.next())),
    };
    for _ in 0..rng.below(60) {
        let gate = match rng.below(7) {
            0 | 1 => {
                let kind = OneQubitKind::ALL[rng.below(OneQubitKind::ALL.len())];
                Gate::one_qubit(kind, rng.wires(wires, 1)[0])
            }
            2 => {
                let q = rng.wires(wires, 2);
                Gate::cnot(q[0], q[1]).unwrap()
            }
            3 => {
                let q = rng.wires(wires, 3);
                Gate::toffoli(q[0], q[1], q[2]).unwrap()
            }
            4 => {
                let q = rng.wires(wires, 3);
                Gate::fredkin(q[0], q[1], q[2]).unwrap()
            }
            5 => {
                let k = 4 + rng.below(4);
                let mut q = rng.wires(wires, k);
                let target = q.pop().unwrap();
                Gate::mct(q, target).unwrap()
            }
            _ => {
                let k = 4 + rng.below(4);
                let mut q = rng.wires(wires, k);
                let b = q.pop().unwrap();
                let a = q.pop().unwrap();
                Gate::mcf(q, a, b).unwrap()
            }
        };
        c.push(gate).unwrap();
    }
    c
}

#[test]
fn write_matches_the_reference_byte_for_byte() {
    let mut rng = SplitMix(0x1eaa);
    for seed in 0..500 {
        let c = random_circuit(&mut rng);
        let text = parser::write(&c);
        assert_eq!(text, reference_write(&c), "seed {seed}");
        assert_eq!(parser::parse(&text).unwrap(), c, "seed {seed}");
    }
}

/// Random edits of written circuits: every text, valid or not, parses to
/// what the reference parses it to — the same circuit, or the same error
/// with the same line and message.
#[test]
fn parse_matches_the_reference_on_edited_texts() {
    const EDITS: [&str; 16] = [
        "",
        "#",
        ":",
        "+1",
        "-1",
        "x",
        "CNOT",
        "MCT",
        "Toffoli",
        "t+",
        "S+",
        "99999999999",
        "7",
        "0",
        ".name",
        ".qubits",
    ];
    let mut rng = SplitMix(0x5eed);
    for seed in 0..1500 {
        let text = parser::write(&random_circuit(&mut rng));
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(lines.len());
            let mut tokens: Vec<&str> = lines[at].split(' ').collect();
            let edit = EDITS[rng.below(EDITS.len())];
            match rng.below(4) {
                0 => {
                    let k = rng.below(tokens.len());
                    tokens[k] = edit;
                }
                1 => tokens.insert(rng.below(tokens.len() + 1), edit),
                2 if tokens.len() > 1 => {
                    tokens.remove(rng.below(tokens.len()));
                }
                _ => tokens.truncate(1),
            }
            lines[at] = tokens.join(" ");
        }
        let edited = lines.join("\n");
        assert_eq!(
            parser::parse(&edited),
            reference_parse(&edited),
            "seed {seed}: {edited}"
        );
    }
}

#[test]
fn malformed_lines_get_the_reference_errors() {
    let corpus = [
        "",
        "# nothing\n",
        "cnot 0 1\n",
        ".qubits\n",
        ".qubits 2 3\n",
        ".qubits x\n",
        ".qubits -1\n",
        ".qubits 4294967296\n",
        ".qubits 2\nbogus 0\n",
        ".qubits 2\nBOGUS 0\n",
        ".qubits 2\ntoffolis 0 1 2\n",
        ".qubits 2\nÉtoile 0\n",
        ".qubits 2\nh\n",
        ".qubits 2\nh 0 1\n",
        ".qubits 2\nH 0 1\n",
        ".qubits 2\nh x\n",
        ".qubits 2\nh 2\n",
        ".qubits 2\nh -0\n",
        ".qubits 2\nh +2\n",
        ".qubits 2\ncnot 0\n",
        ".qubits 2\nCnOt 0 0\n",
        ".qubits 2\ncnot 0 5\n",
        ".qubits 2\ncnot 7 5\n",
        ".qubits 3\ntoffoli 0 1\n",
        ".qubits 3\ntoffoli 0 1 1\n",
        ".qubits 3\nfredkin 0 1 q\n",
        ".qubits 3\nfredkin 0 4 3\n",
        ".qubits 4\nmct\n",
        ".qubits 4\nmct 0\n",
        ".qubits 4\nmct 0 0\n",
        ".qubits 4\nmct 0 1 2 2\n",
        ".qubits 4\nmct 0 1 9 8\n",
        ".qubits 4\nmcf 0 1 2\n",
        ".qubits 4\nmcf : 2 3\n",
        ".qubits 4\nmcf 0 : 2\n",
        ".qubits 4\nmcf 0 : 2 3 1\n",
        ".qubits 4\nmcf 0 1 : 1 3\n",
        ".qubits 4\nmcf 0 x : 2 3\n",
        ".qubits 4\nmcf 0 1 : y 3\n",
        ".qubits 4\nmcf 0 1 : 2 : 3\n",
        ".qubits 4\nmcf 0 9 : 2 3\n",
        ".qubits 4\nmcf 0 1 : 2 2\n",
        ".name a  b\n.qubits 2\n\n  # c\nx 0 # d\nnot 1\ncnot 1 0 1\n",
    ];
    for text in corpus {
        let got = parser::parse(text);
        assert!(got.is_err(), "{text:?} should not parse");
        assert_eq!(got, reference_parse(text), "{text:?}");
    }
}
