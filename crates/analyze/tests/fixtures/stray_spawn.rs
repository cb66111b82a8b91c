//! Fixture: thread spawns outside the spawn allowlist.

pub fn run() {
    let h = std::thread::spawn(|| 1 + 1);
    h.join().ok();
    let b = std::thread::Builder::new();
    let h2 = b.spawn(|| 2);
    drop(h2);
}
