//! Minimal dependency-free flag parsing.
//!
//! Supports `--flag value`, `--flag=value`, and boolean `--flag`
//! switches, with typed accessors and an unknown-flag check so typos
//! fail loudly. A flag given twice is an error rather than a silent
//! last-one-wins.

use std::collections::BTreeMap;
use std::fmt;

/// A parse/validation failure, printed to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, Option<String>>,
    positional: Vec<String>,
}

impl Args {
    /// Parses raw tokens (without the program name).
    ///
    /// # Errors
    ///
    /// Rejects malformed flags (e.g. `---x`) and flags given more than
    /// once, in either spelling.
    pub fn parse<I, S>(tokens: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(body) = tok.strip_prefix("--") {
                if body.is_empty() || body.starts_with('-') {
                    return Err(ArgError(format!("malformed flag '{tok}'")));
                }
                let (key, value) = match body.split_once('=') {
                    Some((key, value)) => (key, Some(value.to_owned())),
                    // Take the next token as a value unless it is a flag.
                    None => match iter.peek() {
                        Some(next) if !next.starts_with("--") => (body, iter.next()),
                        _ => (body, None),
                    },
                };
                if args.flags.insert(key.to_owned(), value).is_some() {
                    return Err(ArgError(format!("flag --{key} given more than once")));
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).and_then(|v| v.as_deref())
    }

    /// A string flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A boolean switch (present, with no value or `true`/`false`).
    ///
    /// # Errors
    ///
    /// Rejects non-boolean values.
    pub fn get_bool(&self, key: &str) -> Result<bool, ArgError> {
        match self.flags.get(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => v
                .parse::<bool>()
                .map_err(|_| ArgError(format!("--{key} expects true/false, got '{v}'"))),
        }
    }

    /// A typed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Rejects unparsable values.
    pub fn get_num<T>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + Copy,
        T::Err: fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| ArgError(format!("--{key}: cannot parse '{v}': {e}"))),
        }
    }

    /// Errors on flags outside `allowed` (typo protection).
    ///
    /// # Errors
    ///
    /// Lists the unknown flag and the allowed set.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_flag_shapes() {
        let args = Args::parse(["pos", "--model", "opt-30b", "--batch=8", "--compress"]).unwrap();
        assert_eq!(args.get("model"), Some("opt-30b"));
        assert_eq!(args.get("batch"), Some("8"));
        assert!(args.get_bool("compress").unwrap());
        assert!(!args.get_bool("absent").unwrap());
        assert_eq!(args.positional(), ["pos"]);
        // A bare token after a switch binds to it as a value; use
        // `--flag=value` or place switches last to disambiguate.
        let greedy = Args::parse(["--compress", "pos"]).unwrap();
        assert!(greedy.get_bool("compress").is_err());
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let args = Args::parse(["--batch", "12"]).unwrap();
        assert_eq!(args.get_num("batch", 1u32).unwrap(), 12);
        assert_eq!(args.get_num("missing", 7u32).unwrap(), 7);
        let bad = Args::parse(["--batch", "nope"]).unwrap();
        assert!(bad.get_num("batch", 1u32).is_err());
    }

    #[test]
    fn boolean_values_validate() {
        let args = Args::parse(["--kv-offload=true"]).unwrap();
        assert!(args.get_bool("kv-offload").unwrap());
        let bad = Args::parse(["--kv-offload=sideways"]).unwrap();
        assert!(bad.get_bool("kv-offload").is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let args = Args::parse(["--modle", "opt-30b"]).unwrap();
        let err = args.reject_unknown(&["model"]).unwrap_err();
        assert!(err.to_string().contains("--modle"));
        assert!(args.reject_unknown(&["modle"]).is_ok());
    }

    #[test]
    fn flag_followed_by_flag_is_a_switch() {
        let args = Args::parse(["--compress", "--batch", "4"]).unwrap();
        assert!(args.get_bool("compress").unwrap());
        assert_eq!(args.get("batch"), Some("4"));
    }

    #[test]
    fn repeated_flags_rejected() {
        for tokens in [
            &["--batch", "4", "--batch", "8"][..],
            &["--batch=4", "--batch=8"],
            &["--batch", "4", "--batch=8"],
            &["--compress", "--compress"],
        ] {
            let err = Args::parse(tokens.iter().copied()).unwrap_err();
            let flag = tokens[0].split('=').next().unwrap_or_default();
            assert_eq!(err.to_string(), format!("flag {flag} given more than once"));
        }
    }

    #[test]
    fn malformed_flags_error() {
        assert!(Args::parse(["---x"]).is_err());
        assert!(Args::parse(["--"]).is_err());
    }

    #[test]
    fn get_or_defaults() {
        let args = Args::parse(["--memory", "nvdram"]).unwrap();
        assert_eq!(args.get_or("memory", "dram"), "nvdram");
        assert_eq!(args.get_or("placement", "baseline"), "baseline");
    }
}
