//! Runtime error type.

use std::fmt;

/// Errors surfaced by the deployment runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Socket-level failure.
    Io(std::io::Error),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = RuntimeError::from(std::io::Error::other("refused"));
        assert!(e.to_string().contains("io error: refused"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
