//! Fixture: bare unwrap/expect inside a hot-path function.

fn bound_phase(slot: &std::sync::Mutex<u64>) -> u64 {
    let g = slot.lock().unwrap();
    let v = std::env::var("X").expect("env");
    *g + v.len() as u64
}

fn elsewhere(slot: &std::sync::Mutex<u64>) -> u64 {
    *slot.lock().unwrap()
}
