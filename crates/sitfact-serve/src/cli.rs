//! Minimal `--flag value` argument parsing shared by the demo binaries
//! (`sitfact_serve`, `sitfact_client`). Deliberately tiny: a flag given
//! without a value is treated as absent, and an unknown flag
//! ([`reject_unknown`]) or an unparsable value fails loudly with the flag
//! name — a smoke-test binary must not fall back to a default silently, or a
//! misspelt `--snapshot-evry` tests something else than the script says.

/// Returns the value following `--name`, if present.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value of `--name`, or returns `default` when the flag is
/// absent.
///
/// # Panics
///
/// Panics if the flag is present but its value does not parse as `T`.
pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        None => default,
        #[expect(
            clippy::panic,
            reason = "demo-binary CLI parsing, documented to panic on bad flags"
        )]
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("{name}: cannot parse {raw:?}")),
    }
}

/// Whether the bare flag `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Refuses any `--argument` that is not in `known` (a binary's one flag
/// list), naming the offender and the known flags. Values never start with
/// `--` in these binaries, so every such argument is a flag.
pub fn reject_unknown(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        None => Ok(()),
        Some(unknown) => Err(format!(
            "unknown flag {unknown}; known flags: {}",
            known.join(" ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let argv = args(&["--n", "12", "--verbose", "--name", "x"]);
        assert_eq!(parsed(&argv, "--n", 5usize), 12);
        assert_eq!(parsed(&argv, "--missing", 5usize), 5);
        assert_eq!(flag_value(&argv, "--name"), Some("x"));
        assert_eq!(flag_value(&argv, "--absent"), None);
        assert!(has_flag(&argv, "--verbose"));
        assert!(!has_flag(&argv, "--quiet"));
        // A flag at the end without a value reads as absent.
        assert_eq!(flag_value(&args(&["--n"]), "--n"), None);
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_known_list() {
        let known = ["--n", "--verbose"];
        assert_eq!(
            reject_unknown(&args(&["--n", "12", "--verbose"]), &known),
            Ok(())
        );
        assert_eq!(reject_unknown(&args(&[]), &known), Ok(()));
        // Values and single-dash arguments are not flags.
        assert_eq!(reject_unknown(&args(&["--n", "-3", "x"]), &known), Ok(()));
        let error = reject_unknown(&args(&["--n", "12", "--mode", "mutex"]), &known).unwrap_err();
        assert!(error.contains("unknown flag --mode"), "{error}");
        assert!(error.contains("--n --verbose"), "{error}");
        // A misspelling is an unknown flag, not a silently ignored one.
        assert!(reject_unknown(&args(&["--verbos"]), &known).is_err());
    }

    #[test]
    #[should_panic(expected = "--n: cannot parse")]
    fn unparsable_value_panics_with_the_flag_name() {
        let _ = parsed(&args(&["--n", "many"]), "--n", 0usize);
    }
}
