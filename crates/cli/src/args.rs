//! Minimal flag parser (`--key value` pairs after a subcommand).
//!
//! Hand-rolled on purpose: the allowed dependency set has no argument
//! parser, and the CLI's surface is small enough that a 100-line parser
//! with good error messages beats pulling one in.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command line: a command, an optional subcommand, and
/// `--key value` flags. Every lookup records its key, so a flag no
/// command asked for can be reported instead of silently ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional argument.
    pub command: String,
    /// An optional second positional argument (e.g. `report trace.jsonl`).
    /// Only allowed directly after the command, before any flags.
    pub subcommand: Option<String>,
    flags: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

/// Errors from parsing or flag lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The offending value.
        value: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand (try 'help')"),
            ArgError::UnexpectedPositional(v) => write!(f, "unexpected argument '{v}'"),
            ArgError::BadValue { flag, value } => {
                write!(f, "cannot parse '{value}' for --{flag}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut subcommand = None;
        let mut flags = BTreeMap::new();
        let mut first = true;
        let mut it = it.peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                // A flag followed by another flag (or end of input) is a
                // valueless boolean switch: `--error-feedback` stores
                // "true". Everything else consumes the next token.
                let val = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                flags.insert(key.to_string(), val);
            } else if first {
                subcommand = Some(tok);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
            first = false;
        }
        Ok(Self { command, subcommand, flags, read: RefCell::default() })
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.flags.get(key)
    }

    /// Errs, naming them, when flags were given that no lookup has read
    /// (a typo or a retired option).
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let unread: Vec<String> =
            self.flags.keys().filter(|k| !read.contains(*k)).map(|k| format!("--{k}")).collect();
        if unread.is_empty() {
            return Ok(());
        }
        Err(format!("'{}' does not take {}", self.command, unread.join(", ")))
    }

    /// A string flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// An optional string flag.
    pub fn str_opt(&self, key: &str) -> Option<&str> {
        self.get(key).map(|s| s.as_str())
    }

    /// A boolean switch: present with no value (or `true`/`1`) is on;
    /// absent, `false` or `0` is off.
    pub fn bool_flag(&self, key: &str) -> Result<bool, ArgError> {
        match self.get(key).map(|s| s.as_str()) {
            None => Ok(false),
            Some("true") | Some("1") => Ok(true),
            Some("false") | Some("0") => Ok(false),
            Some(v) => Err(ArgError::BadValue { flag: key.to_string(), value: v.to_string() }),
        }
    }

    /// A parsed numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue { flag: key.to_string(), value: v.clone() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["run", "--dataset", "cora", "--rounds", "30"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.subcommand, None);
        assert_eq!(a.str_or("dataset", "x"), "cora");
        assert_eq!(a.num_or("rounds", 0usize).unwrap(), 30);
        assert_eq!(a.num_or("clients", 10usize).unwrap(), 10);
    }

    #[test]
    fn parses_optional_subcommand() {
        let a = parse(&["report", "trace.jsonl", "--profile", "5"]).unwrap();
        assert_eq!(a.command, "report");
        assert_eq!(a.subcommand.as_deref(), Some("trace.jsonl"));
        assert_eq!(a.str_or("profile", "0"), "5");
    }

    #[test]
    fn valueless_flags_are_boolean_switches() {
        // Trailing flag and flag-before-flag both read as `true`.
        let a = parse(&["run", "--error-feedback", "--rounds", "3", "--trace"]).unwrap();
        assert!(a.bool_flag("error-feedback").unwrap());
        assert!(a.bool_flag("trace").unwrap());
        assert!(!a.bool_flag("absent").unwrap());
        assert_eq!(a.num_or("rounds", 0usize).unwrap(), 3);
        // Explicit values still work; junk is rejected.
        let b = parse(&["run", "--error-feedback", "false", "--x", "maybe"]).unwrap();
        assert!(!b.bool_flag("error-feedback").unwrap());
        assert!(matches!(b.bool_flag("x"), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn rejects_missing_command_and_values() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
        // A trailing `--flag` is a boolean switch now, not an error.
        let a = parse(&["run", "--dataset"]).unwrap();
        assert_eq!(a.str_opt("dataset"), Some("true"));
        // A subcommand is only allowed immediately after the command.
        assert_eq!(
            parse(&["run", "one", "two"]),
            Err(ArgError::UnexpectedPositional("two".into()))
        );
        assert_eq!(
            parse(&["run", "--rounds", "3", "late"]),
            Err(ArgError::UnexpectedPositional("late".into()))
        );
    }

    #[test]
    fn reports_bad_numbers() {
        let a = parse(&["run", "--rounds", "many"]).unwrap();
        assert!(matches!(a.num_or("rounds", 1usize), Err(ArgError::BadValue { .. })));
    }
}
