//! Error type for sensor construction and simulation.

use std::error::Error;
use std::fmt;

use clocksense_netlist::NetlistError;
use clocksense_spice::SpiceError;

/// Errors produced while building or simulating the sensing circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The circuit could not be constructed.
    Netlist(NetlistError),
    /// The electrical simulation failed.
    Spice(SpiceError),
    /// A sensor or stimulus parameter is out of its valid domain.
    InvalidParameter(String),
    /// A parallel worker item panicked; the payload message is preserved.
    WorkerPanic(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::Spice(e) => write!(f, "simulation error: {e}"),
            CoreError::InvalidParameter(detail) => {
                write!(f, "invalid parameter: {detail}")
            }
            CoreError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Netlist(e) => Some(e),
            CoreError::Spice(e) => Some(e),
            CoreError::InvalidParameter(_) | CoreError::WorkerPanic(_) => None,
        }
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<SpiceError> for CoreError {
    fn from(e: SpiceError) -> Self {
        CoreError::Spice(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_preserves_source() {
        let e: CoreError = NetlistError::FloatingNode("x".into()).into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = SpiceError::SingularMatrix.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoreError::InvalidParameter("p".into())).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
