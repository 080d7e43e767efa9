fn main() {
    core::used_by_example();
}
