//! Flag parsing for the CLI (no external dependencies).
//!
//! Each subcommand declares its flags once, in its usage line: `--flag
//! X` takes a value, while a flag alone in its brackets or followed by
//! another bracket or `|` takes none (`[--json]`, `--sweep [--refs N]`).
//! The argument list is checked against that line before the subcommand
//! reads anything from it.

/// Whether `usage` declares `flag`, and if so whether a value follows
/// it.
fn declared(usage: &str, flag: &str) -> Option<bool> {
    let mut words = usage.split_whitespace();
    while let Some(word) = words.next() {
        if word.trim_start_matches('[').trim_end_matches(']') == flag {
            let next = words.next().unwrap_or("[");
            return Some(!word.ends_with(']') && !next.starts_with(['[', '|', '-']));
        }
    }
    None
}

/// An argument list checked against its usage line: every `--flag` is
/// declared, appears once and carries its value if it takes one.
#[derive(Debug)]
pub struct Args<'a> {
    usage: &'a str,
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` into positionals and the flags `usage` declares.
    ///
    /// # Errors
    ///
    /// Names the first unknown or repeated flag, or a flag missing its
    /// value.
    pub fn parse(args: &'a [String], usage: &'a str) -> Result<Self, String> {
        let mut out = Self {
            usage,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                out.positional.push(arg);
                continue;
            }
            let Some(takes_value) = declared(usage, arg) else {
                return Err(format!("unknown flag '{arg}'"));
            };
            if out.has(arg) {
                return Err(format!("repeated flag '{arg}'"));
            }
            let value = if takes_value {
                let v = rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
                Some(v.as_str())
            } else {
                None
            };
            out.flags.push((arg, value));
        }
        Ok(out)
    }

    /// The usage line the arguments were checked against.
    #[must_use]
    pub fn usage(&self) -> &'a str {
        self.usage
    }

    /// First positional (non-flag) argument.
    #[must_use]
    pub fn positional(&self) -> Option<&'a str> {
        self.positional.first().copied()
    }

    /// Every positional (non-flag) argument, in order.
    #[must_use]
    pub fn positionals(&self) -> &[&'a str] {
        &self.positional
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|&(name, _)| name == flag)
    }

    /// The value given with `flag`, if it was given.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|&&(name, _)| name == flag)
            .and_then(|&(_, value)| value)
    }

    /// The parsed value of `flag`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// Returns an error string when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for {flag}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str =
        "pcache x <app> [--refs N] [--scheme S | --expr 'SRC'] [--run] | --sweep [--out FILE]";

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_usage_line_declares_each_flag_and_its_value() {
        let want = [
            ("--refs", Some(true)),
            ("--scheme", Some(true)),
            ("--expr", Some(true)),
            ("--run", Some(false)),
            ("--sweep", Some(false)),
            ("--out", Some(true)),
            ("--verbose", None),
        ];
        for (flag, takes_value) in want {
            assert_eq!(declared(USAGE, flag), takes_value, "{flag}");
        }
    }

    #[test]
    fn flags_and_positionals_split() {
        let args = v(&["--run", "trace.txt", "--refs", "5000"]);
        let a = Args::parse(&args, USAGE).unwrap();
        assert_eq!(a.positional(), Some("trace.txt"));
        assert_eq!(a.parsed("--refs", 7u64), Ok(5000));
        assert_eq!(a.parsed("--out", 7u64), Ok(7));
        assert!(a.has("--run") && !a.has("--sweep"));
        assert_eq!(a.value("--run"), None);
    }
}
