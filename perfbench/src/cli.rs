//! Command-line arguments.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//!           [--write-golden]
//! ```

use crate::workloads::WorkloadKind;

/// Longest measured window the benchmark accepts.
pub const MAX_SECONDS: u64 = 600;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Rewrite the golden determinism table for this workload from the
    /// default seed instead of checking it.
    pub write_golden: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <construct|pheromone_update|local_search|cpu_batch> \
--seed <u64> --seconds <1..=600> --trace <0|1> [--write-golden]";

/// Parse `args` (without the program name). Every malformed input is an
/// error message, never a panic.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_golden = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            if write_golden {
                return Err("--write-golden given twice".into());
            }
            write_golden = true;
            continue;
        }
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = WorkloadKind::from_name(&workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed =
        seed.ok_or("--seed is required")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = seconds
        .ok_or("--seconds is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be in 1..={MAX_SECONDS}, got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace, write_golden })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_form() {
        let a = parse(&args("--workload cpu_batch --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, WorkloadKind::CpuBatch);
        assert_eq!((a.seed, a.seconds, a.trace, a.write_golden), (7, 10, true, false));
        let a = parse(&args("--trace 0 --seconds 1 --seed 0 --workload construct --write-golden"))
            .unwrap();
        assert!(a.write_golden && !a.trace);
    }

    #[test]
    fn refuses_malformed_arguments() {
        for bad in [
            "",
            "--workload",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload construct --seed -1 --seconds 1 --trace 0",
            "--workload construct --seed 1 --seconds 0 --trace 0",
            "--workload construct --seed 1 --seconds 601 --trace 0",
            "--workload construct --seed 1 --seconds 1e3 --trace 0",
            "--workload construct --seed 1 --seconds 1 --trace 2",
            "--workload construct --seed 1 --seconds 1 --trace",
            "--workload construct --seed 1 --seconds 1",
            "--workload construct --workload construct --seed 1 --seconds 1 --trace 0",
            "--workload construct --seed 1 --seconds 1 --trace 0 --extra",
            "--workload construct --seed 99999999999999999999 --seconds 1 --trace 0",
            "--workload construct --seed 1 --seconds 1 --trace 0 --write-golden --write-golden",
            "construct 1 1 0",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hostile_arguments_never_panic() {
        let pieces = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--write-golden",
            "construct",
            "0",
            "1",
            "-1",
            "",
            "\u{0}",
            "18446744073709551616",
            "local_search",
            "é",
            "--",
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % 9) as usize;
            let argv: Vec<String> = (0..len)
                .map(|i| pieces[((state >> (i * 4)) % pieces.len() as u64) as usize].to_string())
                .collect();
            let _ = parse(&argv);
        }
    }
}
