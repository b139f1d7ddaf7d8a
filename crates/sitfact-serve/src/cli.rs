//! Minimal `--flag value` argument parsing shared by the demo binaries
//! (`sitfact_serve`, `sitfact_client`) and the bench binaries. Deliberately
//! tiny: a flag given without a value is treated as absent, and an unknown
//! flag ([`reject_unknown`]) or an unparsable value ([`parsed`]) is an error
//! naming the flag — a smoke-test binary must not fall back to a default
//! silently, or a misspelt `--snapshot-evry` tests something else than the
//! script says.

/// Returns the value following `--name`, if present.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value of `--name`, or returns `default` when the flag is
/// absent. A value that does not parse as `T` is an error naming the flag.
pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: cannot parse {raw:?}")),
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
        assert_eq!(parsed(&argv, "--n", 5usize), Ok(12));
        assert_eq!(parsed(&argv, "--missing", 5usize), Ok(5));
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
    fn unparsable_value_is_an_error_naming_the_flag() {
        assert_eq!(
            parsed(&args(&["--n", "many"]), "--n", 0usize),
            Err("--n: cannot parse \"many\"".to_string())
        );
        // A negative value for an unsigned flag does not parse either.
        assert!(parsed(&args(&["--port", "-1"]), "--port", 0u16).is_err());
    }
}
