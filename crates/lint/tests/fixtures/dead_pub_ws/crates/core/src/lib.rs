//! Dead-pub fixture: which public fns only test code calls.

pub fn used_by_bin() {}
pub fn used_by_example() {}
pub fn used_by_benchmark() {}
pub fn used_by_other_crate() {}
pub fn only_unit_tests() {}
pub fn only_integration_tests() {}

/// Only a doc example calls it.
///
/// ```
/// core::only_doc_example();
/// ```
pub fn only_doc_example() {}

pub fn only_itself(n: u32) {
    if n > 0 {
        only_itself(n - 1);
    }
}

fn private_and_uncalled() {}

pub struct Store;

impl Store {
    pub fn len(&self) -> usize {
        0
    }

    pub fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helper() {}

    #[test]
    fn calls_from_tests_do_not_count() {
        only_unit_tests();
        Store.reset();
        test_helper();
    }
}
