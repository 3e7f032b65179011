//! Loader for `capped_rounds.txt`: scheduling rounds of the bursty-cell
//! benchmark workload that the branch and bound once left unproven at its
//! 200 000-node cap (see the file's header for the format).

use wcdma_ilp::Problem;

/// One recorded round.
pub struct CappedRound {
    /// Where the round came from: `seed=… sim=… frame=…`.
    pub label: String,
    pub problem: Problem,
    /// The objective the node-capped search returned.
    pub capped: f64,
}

/// Every round of `capped_rounds.txt`, in file order.
pub fn capped_rounds() -> Vec<CappedRound> {
    parse(include_str!("capped_rounds.txt"))
}

fn parse(text: &str) -> Vec<CappedRound> {
    let hex = |word: &str| f64::from_bits(u64::from_str_radix(word, 16).expect("hex f64"));
    let mut lines = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty());
    let mut rounds = Vec::new();
    while let Some(header) = lines.next() {
        let fields: Vec<&str> = header.split_whitespace().collect();
        assert_eq!(fields[0], "round", "block header: {header}");
        let field = |key: &str| {
            fields
                .iter()
                .find_map(|f| f.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
                .unwrap_or_else(|| panic!("{key} missing in {header}"))
        };
        let label = ["seed", "sim", "frame"]
            .map(|key| format!("{key}={}", field(key)))
            .join(" ");
        let mut next = |key: &str| {
            let line = lines
                .next()
                .unwrap_or_else(|| panic!("{label}: {key} missing"));
            let (tag, values) = line.split_once(' ').unwrap_or((line, ""));
            assert_eq!(tag, key, "{label}: expected the {key} line");
            values
                .split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let floats = |v: Vec<String>| v.iter().map(|w| hex(w)).collect::<Vec<f64>>();
        let ints = |v: Vec<String>| v.iter().map(|w| w.parse().expect("u32")).collect();
        let (c, a, b) = (floats(next("c")), floats(next("a")), floats(next("b")));
        let (lo, hi) = (ints(next("lo")), ints(next("hi")));
        let problem = Problem::from_flat(c, a, b, lo, hi);
        assert_eq!(problem.num_vars().to_string(), field("n"), "{label}");
        assert_eq!(problem.num_constraints().to_string(), field("k"), "{label}");
        rounds.push(CappedRound {
            capped: hex(field("capped")),
            label,
            problem,
        });
    }
    rounds
}
