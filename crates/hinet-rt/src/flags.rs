//! Typed `--flag` parsing shared by the `hinet` CLI and `perfbench`.
//!
//! Each command declares its flags up front as a [`FlagSpec`] table;
//! [`parse_flags`] then rejects unknown flags and missing values instead of
//! silently collecting them into a string map, and [`FlagSet::parsed`]
//! gives typed lookup with defaults. `--name value` and `--name=value` are
//! both accepted; bare words come back as positionals.
//!
//! ```
//! use hinet_rt::flags::{flag, parse_flags};
//!
//! const SPEC: &[hinet_rt::flags::FlagSpec] = &[
//!     flag("n", true, "node count"),
//!     flag("verbose", false, "chatty output"),
//! ];
//! let args: Vec<String> = ["--n", "40", "--verbose", "extra"]
//!     .iter().map(|s| s.to_string()).collect();
//! let (positionals, flags) = parse_flags(SPEC, &args).unwrap();
//! assert_eq!(positionals, vec!["extra".to_string()]);
//! assert_eq!(flags.parsed("n", 0usize).unwrap(), 40);
//! assert!(flags.has("verbose"));
//! assert!(parse_flags(SPEC, &["--frobnicate".to_string()]).is_err());
//! ```

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// A declared flag.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// Flag name, without the leading `--`.
    pub name: &'static str,
    /// Whether the flag consumes a value (`--n 100`) or is boolean
    /// presence (`--json`).
    pub takes_value: bool,
    /// One-line help text.
    pub help: &'static str,
}

/// Shorthand constructor for [`FlagSpec`] tables.
pub const fn flag(name: &'static str, takes_value: bool, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value,
        help,
    }
}

/// Parsed flags: value flags map to `Some(value)`, boolean flags to `None`.
#[derive(Clone, Debug, Default)]
pub struct FlagSet {
    values: BTreeMap<String, Option<String>>,
}

/// Parse `args` against `spec`. Returns `(positionals, flags)` or a
/// user-facing error (unknown flag, missing value, value on a boolean
/// flag).
pub fn parse_flags(spec: &[FlagSpec], args: &[String]) -> Result<(Vec<String>, FlagSet), String> {
    let mut positional = Vec::new();
    let mut values = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(rest) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            i += 1;
            continue;
        };
        let (name, inline) = match rest.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (rest, None),
        };
        let Some(known) = spec.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag --{name}"));
        };
        if known.takes_value {
            let value = match inline {
                Some(v) => v,
                None => {
                    i += 1;
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| format!("--{name} expects a value"))?
                }
            };
            values.insert(name.to_string(), Some(value));
        } else {
            if inline.is_some() {
                return Err(format!("--{name} does not take a value"));
            }
            values.insert(name.to_string(), None);
        }
        i += 1;
    }
    Ok((positional, FlagSet { values }))
}

impl FlagSet {
    /// Whether the flag was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The raw value of a value-taking flag, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.as_deref())
    }

    /// Typed lookup with a default; parse failures report the flag name
    /// and offending value.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("--{name}: cannot parse '{raw}': {e}")),
        }
    }
}

/// Render a `FLAGS:` help block from a spec table.
pub fn render_help(spec: &[FlagSpec]) -> String {
    let mut out = String::new();
    for f in spec {
        let name = if f.takes_value {
            format!("--{} VALUE", f.name)
        } else {
            format!("--{}", f.name)
        };
        out.push_str(&format!("  {name:<22} {}\n", f.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[FlagSpec] = &[
        flag("n", true, "node count"),
        flag("json", false, "emit json"),
    ];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_positionals_and_booleans() {
        let (pos, flags) = parse_flags(SPEC, &args(&["E3", "--n", "40", "--json", "E5"])).unwrap();
        assert_eq!(pos, vec!["E3", "E5"]);
        assert_eq!(flags.get("n"), Some("40"));
        assert!(flags.has("json"));
        assert!(!flags.has("k"));
        assert_eq!(flags.parsed("n", 0usize).unwrap(), 40);
        assert_eq!(flags.parsed("missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn supports_equals_syntax() {
        let (_, flags) = parse_flags(SPEC, &args(&["--n=99"])).unwrap();
        assert_eq!(flags.parsed("n", 0usize).unwrap(), 99);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse_flags(SPEC, &args(&["--bogus"]))
            .unwrap_err()
            .contains("unknown flag --bogus"));
        assert!(parse_flags(SPEC, &args(&["--n"]))
            .unwrap_err()
            .contains("expects a value"));
        assert!(parse_flags(SPEC, &args(&["--json=yes"]))
            .unwrap_err()
            .contains("does not take a value"));
    }

    #[test]
    fn typed_parse_errors_name_the_flag() {
        let (_, flags) = parse_flags(SPEC, &args(&["--n", "forty"])).unwrap();
        let err = flags.parsed("n", 0usize).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        assert!(err.contains("forty"), "{err}");
    }

    #[test]
    fn help_lists_every_flag() {
        let help = render_help(SPEC);
        assert!(help.contains("--n VALUE"));
        assert!(help.contains("--json"));
        assert!(help.contains("node count"));
    }
}
