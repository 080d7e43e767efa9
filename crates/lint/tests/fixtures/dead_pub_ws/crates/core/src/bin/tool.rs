fn main() {
    core::used_by_bin();
    app::run(&core::Store);
}
