#[test]
fn integration_calls_do_not_count() {
    core::only_integration_tests();
}
