fn main() {
    core::used_by_benchmark();
}
