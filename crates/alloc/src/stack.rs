//! The dirty-before-use stack model (Section 6.1).
//!
//! Stack frames are cheap and short-lived, and use-after-return attacks
//! are rare, so the paper applies the lighter discipline on the stack:
//! unallocated stack memory carries **no** security bytes; a frame's spans
//! are set on function entry and unset on function exit.

use califorms_layout::califormed::{CaliformedLayout, CformOp};
use califorms_sim::TraceOp;

/// A pushed frame's bookkeeping.
#[derive(Debug, Clone)]
struct Frame {
    base: u64,
    size: usize,
    spans: Vec<CformOp>,
}

/// The model stack: grows downward from `top`, one frame per function.
#[derive(Debug)]
pub struct CaliformsStack {
    top: u64,
    sp: u64,
    frames: Vec<Frame>,
    /// Whether to emit `CFORM`s (off for no-CFORM reference runs).
    pub emit_cforms: bool,
    /// Instructions charged to compute each `CFORM`'s masks.
    pub cform_setup_insns: u32,
}

impl CaliformsStack {
    /// Creates a stack with its top (highest address) at `top`.
    pub fn new(top: u64) -> Self {
        assert_eq!(top % 64, 0, "stack top must be cache-line aligned");
        Self {
            top,
            sp: top,
            frames: Vec::new(),
            emit_cforms: true,
            cform_setup_insns: 10,
        }
    }

    /// Current stack pointer.
    pub fn sp(&self) -> u64 {
        self.sp
    }

    /// Current frame depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Pushes a frame holding one object of `layout` (the frame is padded
    /// to 16 B like a real ABI frame), emitting entry-time `CFORM`s
    /// (dirty-before-use: set on entry). Returns the object base address.
    pub fn push_frame(&mut self, layout: &CaliformedLayout, ops: &mut Vec<TraceOp>) -> u64 {
        let size = layout.size.max(1).div_ceil(16) * 16;
        self.sp -= size as u64;
        let base = self.sp;
        let spans = layout.cform_ops(base);
        if self.emit_cforms {
            for &CformOp { line_addr, mask } in &spans {
                ops.push(TraceOp::Exec(self.cform_setup_insns));
                ops.push(TraceOp::Cform {
                    line_addr,
                    attrs: mask,
                    mask,
                });
            }
        }
        self.frames.push(Frame { base, size, spans });
        base
    }

    /// Pops the innermost frame, emitting exit-time `CFORM`s (unset on
    /// exit — the frame's memory returns to plain, unprotected stack).
    ///
    /// # Panics
    ///
    /// Panics if no frame is live.
    pub fn pop_frame(&mut self, ops: &mut Vec<TraceOp>) {
        let frame = self.frames.pop().expect("pop of empty stack");
        if self.emit_cforms {
            for &CformOp { line_addr, mask } in &frame.spans {
                ops.push(TraceOp::Exec(self.cform_setup_insns));
                ops.push(TraceOp::Cform {
                    line_addr,
                    attrs: 0,
                    mask,
                });
            }
        }
        self.sp = frame.base + frame.size as u64;
        debug_assert!(self.sp <= self.top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_layout::{InsertionPolicy, StructDef};
    use califorms_sim::Engine;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn layout() -> CaliformedLayout {
        let mut rng = SmallRng::seed_from_u64(3);
        InsertionPolicy::intelligent_1_to(7).apply(&StructDef::paper_example(), &mut rng)
    }

    #[test]
    fn push_sets_pop_unsets() {
        let mut stack = CaliformsStack::new(0x7FFF_0000);
        let mut ops = Vec::new();
        let l = layout();
        let base = stack.push_frame(&l, &mut ops);
        let span_off = l.security_spans[0].offset as u64;

        let mut engine = Engine::westmere();
        for op in ops.drain(..) {
            engine.step(op);
        }
        assert!(engine.hierarchy.peek_is_security_byte(base + span_off));

        stack.pop_frame(&mut ops);
        for op in ops.drain(..) {
            engine.step(op);
        }
        assert!(!engine.hierarchy.peek_is_security_byte(base + span_off));
        assert_eq!(engine.delivered_exceptions().len(), 0);
    }

    #[test]
    fn frames_nest_and_unwind() {
        let mut stack = CaliformsStack::new(0x7FFF_0000);
        let mut ops = Vec::new();
        let l = layout();
        let sp0 = stack.sp();
        let a = stack.push_frame(&l, &mut ops);
        let b = stack.push_frame(&l, &mut ops);
        assert!(b < a, "stack grows down");
        assert_eq!(stack.depth(), 2);
        stack.pop_frame(&mut ops);
        stack.pop_frame(&mut ops);
        assert_eq!(stack.sp(), sp0, "sp restored after unwind");
    }

    #[test]
    fn intra_frame_overflow_is_detected() {
        let mut stack = CaliformsStack::new(0x7FFF_0000);
        let mut ops = Vec::new();
        let l = layout();
        let base = stack.push_frame(&l, &mut ops);
        // Overflow `buf` by one byte: lands in the span after it.
        let buf = l.field_offset("buf").unwrap() as u64;
        let buf_len = 64u64;
        ops.push(TraceOp::Store {
            addr: base + buf + buf_len,
            size: 1,
        });
        let engine = Engine::westmere();
        let out = engine.run(ops);
        assert_eq!(out.stats.exceptions_delivered, 1);
    }

    #[test]
    fn no_cform_mode_emits_none() {
        let mut stack = CaliformsStack::new(0x7FFF_0000);
        stack.emit_cforms = false;
        let mut ops = Vec::new();
        stack.push_frame(&layout(), &mut ops);
        stack.pop_frame(&mut ops);
        assert!(ops.iter().all(|op| !matches!(op, TraceOp::Cform { .. })));
    }

    #[test]
    #[should_panic(expected = "pop of empty stack")]
    fn unbalanced_pop_panics() {
        CaliformsStack::new(0x1000_0000 & !63).pop_frame(&mut Vec::new());
    }
}
