//! Command-line parsing shared by the `gateway` and `loadgen` binaries.

/// Prints `msg` and exits 2, the status for a bad command line.
pub fn fail(msg: &str) -> ! {
    eprintln!("{}: {msg}", env!("CARGO_BIN_NAME"));
    std::process::exit(2);
}

/// Parses the value after the flag at `args[*i]` and steps `i` onto it; a
/// missing or unparsable value exits naming the flag.
pub fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    *i += 1;
    let Some(raw) = args.get(*i) else { fail(&format!("{flag} needs a value")) };
    raw.parse().unwrap_or_else(|_| fail(&format!("{flag} cannot take {raw:?}")))
}
