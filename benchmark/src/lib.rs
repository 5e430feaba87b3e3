//! The repository's one end-to-end benchmark, as a library so that the
//! `csq_benchmark` binary and the smoke test share its tables and its JSON.
//! README.md has the metric and workload tables and the reasons behind them.

pub mod json;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;

/// The value of `--flag value` or `--flag=value`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == name {
            return iter.next().map(String::as_str);
        }
        if let Some(value) = arg.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            return Some(value);
        }
    }
    None
}

/// The parsed value of a flag, or `default` when it is absent.
pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} cannot take {text:?}")),
    }
}
