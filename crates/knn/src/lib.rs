#![forbid(unsafe_code)]
//! # ferex-knn — k-nearest-neighbor classification on FeReX
//!
//! The KNN application of the paper's Sec. IV: an exact software classifier
//! ([`exact::ExactKnn`]), the associative-memory-backed classifier
//! ([`am::AmKnn`]) that performs each query as one FeReX search (k > 1 via
//! iterative LTA masking), and the accuracy harness ([`eval`]).
//!
//! # Examples
//!
//! ```
//! use ferex_core::{Backend, DistanceMetric};
//! use ferex_fefet::Technology;
//! use ferex_knn::am::AmKnn;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut knn = AmKnn::new(
//!     DistanceMetric::Manhattan, 2, 2, 1, Backend::Ideal, Technology::default(),
//! )?;
//! knn.insert(vec![0, 0], 0)?;
//! knn.insert(vec![3, 3], 1)?;
//! assert_eq!(knn.classify(&[1, 0])?, 0);
//! # Ok(())
//! # }
//! ```

pub mod am;
pub mod eval;
pub mod exact;

pub use am::AmKnn;
pub use eval::{am_accuracy, exact_accuracy, quantize_set};
pub use exact::{ExactKnn, Neighbor};
