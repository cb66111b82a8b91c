//! Seeded hot-path violations one call away from the replay root: the
//! old per-function name heuristic only saw `bound_phase`'s own body;
//! the reachability pass must follow the call into `helper`.

pub fn bound_phase(src: &S) {
    helper(src);
}

fn helper(src: &S) {
    let v = src.next().unwrap();
    let label = format!("step {v}");
    push(label);
}
