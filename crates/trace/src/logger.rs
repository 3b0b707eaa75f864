//! The leveled, timestamped logger daemons and orchestrators narrate
//! through.
//!
//! Lines go to **stderr** (stdout is reserved for deterministic reports
//! the CI byte-diffs) in the grep-able shape
//!
//! ```text
//! 2026-08-08T12:34:56.789Z INFO  [conn 42] authenticated
//! ```
//!
//! The level is a process-global knob set from `--log-level`
//! ([`set_log_level`]); lines above the configured level are skipped
//! before any formatting happens. Tags carry the connection / shard /
//! worker identity so a daemon's interleaved output stays attributable.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// The process is losing work or about to exit.
    Error = 0,
    /// Something degraded but recoverable (a retry, a skipped snapshot).
    Warn = 1,
    /// Normal lifecycle narration (startup, shutdown, worker retirement).
    Info = 2,
    /// Per-request / per-point chatter, off by default.
    Debug = 3,
}

impl LogLevel {
    fn label(self) -> &'static str {
        match self {
            LogLevel::Error => "ERROR",
            LogLevel::Warn => "WARN ",
            LogLevel::Info => "INFO ",
            LogLevel::Debug => "DEBUG",
        }
    }

    fn from_u8(raw: u8) -> Self {
        match raw {
            0 => LogLevel::Error,
            1 => LogLevel::Warn,
            2 => LogLevel::Info,
            _ => LogLevel::Debug,
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label().trim_end())
    }
}

impl FromStr for LogLevel {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw.to_ascii_lowercase().as_str() {
            "error" => Ok(LogLevel::Error),
            "warn" | "warning" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!("unknown log level `{other}` (error|warn|info|debug)")),
        }
    }
}

/// The process-global log level; lines above it are skipped.
static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

/// Sets the process-global log level.
pub fn set_log_level(level: LogLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-global log level.
#[must_use]
pub fn log_level() -> LogLevel {
    LogLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// `true` when a line at `level` would be emitted.
#[must_use]
pub fn log_enabled(level: LogLevel) -> bool {
    level <= log_level()
}

/// Emits one timestamped, tagged line to stderr (after the level check).
/// Prefer the [`log_error!`](crate::log_error) / [`log_warn!`](crate::log_warn)
/// / [`log_info!`](crate::log_info) / [`log_debug!`](crate::log_debug)
/// macros, which skip formatting for suppressed levels.
pub fn log(level: LogLevel, tag: &str, message: fmt::Arguments<'_>) {
    if !log_enabled(level) {
        return;
    }
    eprintln!("{} {} [{tag}] {message}", utc_timestamp(), level.label());
}

/// The current wall-clock time as `YYYY-MM-DDTHH:MM:SS.mmmZ` (UTC).
#[must_use]
pub fn utc_timestamp() -> String {
    let now = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let millis = now.subsec_millis();
    let secs = now.as_secs();
    let (sec, min, hour) = (secs % 60, (secs / 60) % 60, (secs / 3600) % 24);
    let (year, month, day) = civil_from_days((secs / 86_400) as i64);
    format!("{year:04}-{month:02}-{day:02}T{hour:02}:{min:02}:{sec:02}.{millis:03}Z")
}

/// Days-since-epoch → (year, month, day), Howard Hinnant's civil-calendar
/// algorithm.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let days = days + 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if month <= 2 { year + 1 } else { year }, month, day)
}

/// Logs at [`LogLevel::Error`]: `log_error!("tag", "format {}", args)`.
#[macro_export]
macro_rules! log_error {
    ($tag:expr, $($arg:tt)*) => {
        if $crate::logger::log_enabled($crate::LogLevel::Error) {
            $crate::logger::log($crate::LogLevel::Error, $tag, ::std::format_args!($($arg)*));
        }
    };
}

/// Logs at [`LogLevel::Warn`]: `log_warn!("tag", "format {}", args)`.
#[macro_export]
macro_rules! log_warn {
    ($tag:expr, $($arg:tt)*) => {
        if $crate::logger::log_enabled($crate::LogLevel::Warn) {
            $crate::logger::log($crate::LogLevel::Warn, $tag, ::std::format_args!($($arg)*));
        }
    };
}

/// Logs at [`LogLevel::Info`]: `log_info!("tag", "format {}", args)`.
#[macro_export]
macro_rules! log_info {
    ($tag:expr, $($arg:tt)*) => {
        if $crate::logger::log_enabled($crate::LogLevel::Info) {
            $crate::logger::log($crate::LogLevel::Info, $tag, ::std::format_args!($($arg)*));
        }
    };
}

/// Logs at [`LogLevel::Debug`]: `log_debug!("tag", "format {}", args)`.
#[macro_export]
macro_rules! log_debug {
    ($tag:expr, $($arg:tt)*) => {
        if $crate::logger::log_enabled($crate::LogLevel::Debug) {
            $crate::logger::log($crate::LogLevel::Debug, $tag, ::std::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observability_from_args;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("error".parse::<LogLevel>().unwrap(), LogLevel::Error);
        assert_eq!("WARN".parse::<LogLevel>().unwrap(), LogLevel::Warn);
        assert_eq!("Info".parse::<LogLevel>().unwrap(), LogLevel::Info);
        assert_eq!("debug".parse::<LogLevel>().unwrap(), LogLevel::Debug);
        assert!("verbose".parse::<LogLevel>().is_err());
        assert!(LogLevel::Error < LogLevel::Debug);
    }

    #[test]
    fn the_global_level_gates_emission() {
        // Tests share the process-global; restore the default when done.
        set_log_level(LogLevel::Warn);
        assert!(log_enabled(LogLevel::Error));
        assert!(log_enabled(LogLevel::Warn));
        assert!(!log_enabled(LogLevel::Info));
        assert!(!log_enabled(LogLevel::Debug));
        set_log_level(LogLevel::Info);
        assert!(log_enabled(LogLevel::Info));
    }

    #[test]
    fn flag_scan_sets_the_level_and_rejects_garbage() {
        let args = vec!["--log-level".to_string(), "debug".to_string()];
        assert!(observability_from_args(&args).unwrap().is_none(), "no sink without --trace-out");
        assert_eq!(log_level(), LogLevel::Debug);
        set_log_level(LogLevel::Info);

        assert!(observability_from_args(&["--other".to_string()]).unwrap().is_none());
        assert_eq!(log_level(), LogLevel::Info, "an absent flag leaves the level alone");
        assert!(observability_from_args(&["--log-level".to_string()]).is_err());
        let bad = vec!["--log-level".to_string(), "loud".to_string()];
        assert!(observability_from_args(&bad).unwrap_err().contains("loud"));
    }

    #[test]
    fn timestamps_are_iso8601_utc() {
        let ts = utc_timestamp();
        // 2026-08-08T12:34:56.789Z — 24 chars, fixed layout.
        assert_eq!(ts.len(), 24, "{ts}");
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        assert_eq!(&ts[23..], "Z");
        // Known date: 2024-01-01 is 19723 days after the epoch.
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29), "leap day");
    }
}
