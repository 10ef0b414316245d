//! The flag reader behind every tool binary.
//!
//! Each tool keeps its own options struct, defaults and usage text, and
//! writes one parse function that loops over [`Flags::next_flag`],
//! matching flag names and reading values with [`Flags::value`].
//!
//! [`parse_args`] runs such a function over the process arguments and
//! applies the one misuse contract: `--help`/`-h` prints the usage and
//! exits 0; an unknown flag, a missing value or an unparsable value
//! panics with a message naming the flag, followed by the usage.

use std::fmt::Display;
use std::str::FromStr;

/// Why parsing stopped before the end of the arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// The arguments are wrong; the message names the offending flag.
    Misuse(String),
}

/// Reads `--flag [value]` arguments front to back.
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    /// A reader over `args`, which exclude the program name.
    pub fn new(args: Vec<String>) -> Flags {
        Flags { args: args.into_iter(), flag: String::new() }
    }

    /// The next flag, or `None` after the last argument.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] when the next argument is `--help` or `-h`.
    pub fn next_flag(&mut self) -> Result<Option<String>, CliError> {
        let Some(flag) = self.args.next() else { return Ok(None) };
        if flag == "--help" || flag == "-h" {
            return Err(CliError::Help);
        }
        self.flag.clone_from(&flag);
        Ok(Some(flag))
    }

    /// The current flag's value, read through [`FromStr`].
    ///
    /// # Errors
    ///
    /// [`CliError::Misuse`] when the value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        self.value_with(str::parse)
    }

    /// The current flag's value, read by `parse`.
    ///
    /// # Errors
    ///
    /// [`CliError::Misuse`] when the value is missing or `parse` rejects
    /// it.
    pub fn value_with<T, E: Display>(
        &mut self,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, CliError> {
        let Some(v) = self.args.next() else {
            return Err(CliError::Misuse(format!("{} needs a value", self.flag)));
        };
        parse(&v).map_err(|e| CliError::Misuse(format!("bad value '{v}' for {}: {e}", self.flag)))
    }

    /// The error for a flag the tool does not take.
    pub fn unknown(&self) -> CliError {
        CliError::Misuse(format!("unknown flag '{}'", self.flag))
    }
}

/// Parses the process arguments with `parse`.
///
/// `--help` prints `usage` to stderr and exits 0.
///
/// # Panics
///
/// Panics with the misuse message and `usage` when `parse` rejects the
/// arguments.
pub fn parse_args<T>(usage: &str, parse: impl FnOnce(&mut Flags) -> Result<T, CliError>) -> T {
    match parse(&mut Flags::new(std::env::args().skip(1).collect())) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => {
            eprintln!("{usage}");
            std::process::exit(0)
        }
        Err(CliError::Misuse(msg)) => panic!("{msg}\n{usage}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Opts {
        jobs: usize,
        fresh: bool,
    }

    fn parse(args: &[&str]) -> Result<Opts, CliError> {
        let mut f = Flags::new(args.iter().map(|s| s.to_string()).collect());
        let mut out = Opts::default();
        while let Some(flag) = f.next_flag()? {
            match flag.as_str() {
                "--jobs" => out.jobs = f.value()?,
                "--fresh" => out.fresh = true,
                _ => return Err(f.unknown()),
            }
        }
        Ok(out)
    }

    #[test]
    fn reads_valued_and_boolean_flags() {
        assert_eq!(parse(&["--jobs", "4", "--fresh"]), Ok(Opts { jobs: 4, fresh: true }));
        assert_eq!(parse(&[]), Ok(Opts::default()));
    }

    #[test]
    fn misuse_names_the_flag() {
        for (args, msg) in [
            (&["--fresh", "--jobs"][..], "--jobs needs a value"),
            (&["--jobs", "many"], "bad value 'many' for --jobs: invalid digit found in string"),
            (&["--fresh", "--no-such-flag"], "unknown flag '--no-such-flag'"),
        ] {
            assert_eq!(parse(args), Err(CliError::Misuse(msg.into())), "{args:?}");
        }
    }

    #[test]
    fn help_stops_parsing_wherever_it_appears() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["--jobs", "2", "-h", "--no-such-flag"]), Err(CliError::Help));
    }

    #[test]
    fn custom_value_parser() {
        let mut f = Flags::new(vec!["--deny".into(), "errors".into()]);
        assert_eq!(f.next_flag(), Ok(Some("--deny".to_string())));
        let got = f.value_with(|s| if s == "warnings" { Ok(()) } else { Err("takes `warnings`") });
        assert_eq!(
            got,
            Err(CliError::Misuse("bad value 'errors' for --deny: takes `warnings`".into()))
        );
    }
}
