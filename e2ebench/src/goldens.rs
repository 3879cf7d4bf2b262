//! Transcript digests recorded at the frozen sizes for seeds 1 and 2
//! (`goldens.txt`: workload, seed, timed ops, digest). A run with another
//! seed or `--seconds` has no golden and relies on the reference checks.

const GOLDENS: &str = include_str!("goldens.txt");

pub fn lookup(workload: &str, seed: u64, ops: u64) -> Option<u64> {
    GOLDENS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse() == Ok(seed) && f.next()?.parse() == Ok(ops))
            .then(|| u64::from_str_radix(f.next()?, 16).ok())?
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_line_parses() {
        for line in super::GOLDENS.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "{line}");
            assert!(f[1].parse::<u64>().is_ok() && f[2].parse::<u64>().is_ok());
            assert!(u64::from_str_radix(f[3], 16).is_ok());
            assert_eq!(
                super::lookup(f[0], f[1].parse().unwrap(), f[2].parse().unwrap()),
                u64::from_str_radix(f[3], 16).ok()
            );
        }
    }
}
