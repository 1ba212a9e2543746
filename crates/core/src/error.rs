//! The workspace-wide error type: one enum for every way a QSPR flow
//! can fail, from reading a file to a stalled simulation.

use std::error::Error;
use std::fmt;
use std::io;

use qspr_fabric::FabricError;
use qspr_qasm::ParseError;
use qspr_sim::{MapError, ParseFlowPolicyError};
use qspr_sta::StaError;

/// Any failure of the QSPR flow.
///
/// Every layer's error converts into this enum (via `From` or the
/// [`QsprError::io`] constructor), so application code — the `qspr`
/// CLI included — propagates one type with `?` instead of stringly
/// plumbing.
///
/// # Examples
///
/// ```
/// use qspr::QsprError;
/// use qspr_qasm::Program;
///
/// fn parse(src: &str) -> Result<Program, QsprError> {
///     Ok(Program::parse(src)?)
/// }
///
/// let err = parse("FROB q\n").unwrap_err();
/// assert!(matches!(err, QsprError::Parse(_)));
/// assert!(err.to_string().contains("unknown gate"));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum QsprError {
    /// QASM source was rejected by the parser.
    Parse(ParseError),
    /// A fabric description was rejected.
    Fabric(FabricError),
    /// The mapper could not map a program.
    Map(MapError),
    /// A `qspr suite` run failed on a named circuit.
    Circuit {
        /// The failing circuit's name (its source path for QASM files).
        circuit: String,
        /// The circuit's own error.
        source: Box<QsprError>,
    },
    /// Static timing analysis rejected its inputs.
    Sta(StaError),
    /// A file could not be read or written, or an address could not be
    /// bound or served on.
    Io {
        /// What failed on `path`: `"read"`, `"write"`, `"bind"` or
        /// `"serve on"`.
        action: &'static str,
        /// The path or address that failed.
        path: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Invalid usage or configuration (unknown flag, bad option value).
    Usage(String),
}

impl QsprError {
    /// A failure to `action` (`"read"`, `"write"`, ...) `path`;
    /// displays as `"cannot <action> <path>: <source>"`.
    pub fn io(action: &'static str, path: impl Into<String>, source: io::Error) -> QsprError {
        QsprError::Io {
            action,
            path: path.into(),
            source,
        }
    }

    /// `source` attributed to the circuit named `circuit`; displays as
    /// `"<circuit>: <source>"`.
    pub fn circuit(circuit: impl Into<String>, source: QsprError) -> QsprError {
        QsprError::Circuit {
            circuit: circuit.into(),
            source: Box::new(source),
        }
    }

    /// A usage/configuration error with a human-readable message.
    pub fn usage(message: impl Into<String>) -> QsprError {
        QsprError::Usage(message.into())
    }
}

impl fmt::Display for QsprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsprError::Parse(e) => write!(f, "{e}"),
            QsprError::Fabric(e) => write!(f, "invalid fabric: {e}"),
            QsprError::Map(e) => write!(f, "{e}"),
            QsprError::Circuit { circuit, source } => write!(f, "{circuit}: {source}"),
            QsprError::Sta(e) => write!(f, "{e}"),
            QsprError::Io {
                action,
                path,
                source,
            } => write!(f, "cannot {action} {path}: {source}"),
            QsprError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for QsprError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QsprError::Parse(e) => Some(e),
            QsprError::Fabric(e) => Some(e),
            QsprError::Map(e) => Some(e),
            QsprError::Circuit { source, .. } => Some(source),
            QsprError::Sta(e) => Some(e),
            QsprError::Io { source, .. } => Some(source),
            QsprError::Usage(_) => None,
        }
    }
}

impl From<ParseError> for QsprError {
    fn from(e: ParseError) -> QsprError {
        QsprError::Parse(e)
    }
}

impl From<FabricError> for QsprError {
    fn from(e: FabricError) -> QsprError {
        QsprError::Fabric(e)
    }
}

impl From<MapError> for QsprError {
    fn from(e: MapError) -> QsprError {
        QsprError::Map(e)
    }
}

impl From<ParseFlowPolicyError> for QsprError {
    fn from(e: ParseFlowPolicyError) -> QsprError {
        QsprError::Usage(e.to_string())
    }
}

impl From<StaError> for QsprError {
    fn from(e: StaError) -> QsprError {
        QsprError::Sta(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer() {
        let parse = qspr_qasm::Program::parse("FROB q\n").unwrap_err();
        let e = QsprError::from(parse);
        assert!(matches!(e, QsprError::Parse(_)));
        assert!(e.source().is_some());

        let fabric = qspr_fabric::Fabric::from_ascii("").unwrap_err();
        let e = QsprError::from(fabric);
        assert!(e.to_string().starts_with("invalid fabric:"));

        let e = QsprError::from(MapError::Stalled { remaining: 2 });
        assert!(e.to_string().contains("2 instruction"));

        let e = QsprError::from(StaError::MissingTrace);
        assert!(e.to_string().contains("trace"));
        assert!(e.source().is_some());

        let e = QsprError::io("write", "out.json", io::Error::other("boom"));
        assert_eq!(e.to_string(), "cannot write out.json: boom");

        let policy = "qpos".parse::<qspr_sim::FlowPolicy>().unwrap_err();
        let e = QsprError::from(policy);
        assert!(matches!(&e, QsprError::Usage(m)
            if m == r#"unknown policy "qpos" (expected qspr or quale)"#));

        let e = QsprError::usage("unknown flag --frob");
        assert_eq!(e.to_string(), "unknown flag --frob");
        assert!(e.source().is_none());
    }

    #[test]
    fn is_a_send_sync_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<QsprError>();
    }
}
