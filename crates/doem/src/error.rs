//! Errors for DOEM construction, validation and encoding.

use oem::{ArcTriple, NodeId, OemError, Timestamp};
use std::fmt;

/// Everything that can go wrong when building or interrogating a DOEM
/// database.
#[derive(Clone, Debug, PartialEq)]
pub enum DoemError {
    /// An underlying OEM operation failed (history invalid for the initial
    /// snapshot, etc.).
    Oem(OemError),
    /// A node carries more than one `cre` annotation, or a `cre` annotation
    /// that is not its earliest.
    BadCreAnnotation(NodeId),
    /// A node's `upd` annotations are not strictly increasing in time.
    UnorderedUpdAnnotations(NodeId),
    /// An arc's annotations do not alternate `add`/`rem` in time order.
    BadArcAnnotations(ArcTriple),
    /// An arc into a node that carries `cre(tc)` has no `add` annotation
    /// at or after `tc` as its earliest one: the arc would reach the node
    /// at a time the node did not exist.
    ArcBeforeChildCreation(ArcTriple),
    /// An annotation mentions a timestamp earlier than the node's creation.
    AnnotationBeforeCreation {
        /// The annotated node.
        node: NodeId,
        /// Creation time.
        created: Timestamp,
        /// The offending annotation time.
        annotated: Timestamp,
    },
    /// The OEM encoding being decoded is not a well-formed Section 5.1
    /// encoding.
    MalformedEncoding(String),
    /// [`crate::apply_set`]'s two applications of a set disagreed.
    ReferenceDisagrees(String),
}

impl fmt::Display for DoemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DoemError::Oem(e) => write!(f, "{e}"),
            DoemError::BadCreAnnotation(n) => {
                write!(f, "node {n} has a conflicting cre annotation")
            }
            DoemError::UnorderedUpdAnnotations(n) => {
                write!(f, "node {n} has upd annotations out of time order")
            }
            DoemError::BadArcAnnotations(a) => {
                write!(f, "arc {a} has annotations that do not alternate add/rem")
            }
            DoemError::ArcBeforeChildCreation(a) => {
                write!(f, "arc {a} reaches its child before the child was created")
            }
            DoemError::AnnotationBeforeCreation {
                node,
                created,
                annotated,
            } => write!(
                f,
                "node {node} created at {created} has an annotation at {annotated}"
            ),
            DoemError::MalformedEncoding(msg) => {
                write!(f, "malformed DOEM-in-OEM encoding: {msg}")
            }
            DoemError::ReferenceDisagrees(w) => write!(f, "apply disagrees with OEM: {w}"),
        }
    }
}

impl std::error::Error for DoemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DoemError::Oem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OemError> for DoemError {
    fn from(e: OemError) -> DoemError {
        DoemError::Oem(e)
    }
}

/// Result alias for DOEM operations.
pub type Result<T> = std::result::Result<T, DoemError>;
