//! Clean negative for the workspace passes: consistent lock order, the
//! replay roots reach only checked code, allocation happens only on the
//! cold path, and the one atomic access is SeqCst.

pub fn bound_phase(state: &M, panics: &M, src: &S) {
    let _gs = state.lock();
    let _gp = panics.lock();
    step(src);
}

pub fn weave_turn(state: &M, panics: &M, src: &S) {
    let _gs = state.lock();
    let _gp = panics.lock();
    if let Some(v) = src.next() {
        touch(v);
    }
}

fn step(src: &S) {
    let x = src.len();
    touch(x);
}

pub fn cold_summary() -> String {
    format!("not reachable from a replay root")
}

pub fn seq_cst(c: &AtomicU64) {
    c.fetch_add(1, Ordering::SeqCst);
}
