pub fn run(store: &core::Store) -> usize {
    core::used_by_other_crate();
    store.len()
}
