//! Bitwise checks of the lowering's exact per-element schedule against the
//! interpreter (test builds only).
//!
//! The closure backend, retired when the SIMD backend became the only JIT,
//! executed the [`crate::lower`] micro-op streams directly; these cases
//! checked it against [`crate::Interpreter`]. The same streams still run that
//! way: [`CompiledLoop::run_elementwise`] is the SIMD backend's exact
//! fallback for modules with element-0 side channels. [`run_exact`] sends
//! every loop stage through it, side channel or not, so a divergence found
//! here lies in the lowering itself rather than in the SIMD lane schedule.

use crate::interp::{self, ExecError};
use crate::ir::{KernelModule, KernelStage};
use crate::lower::{lower_loop, CompiledLoop};

/// Lowers every loop stage of `module` up front (so malformed SSA fails
/// before any buffer is touched, as a compile would), then executes the
/// stages in order: loops through [`CompiledLoop::run_elementwise`] after the
/// same runtime checks the SIMD backend makes, opaque stages through the
/// interpreter's native implementations.
fn run_exact(
    module: &KernelModule,
    buffers: &mut [Vec<f64>],
    scalars: &[f64],
) -> Result<(), ExecError> {
    let lowered = module
        .stages
        .iter()
        .map(|stage| match stage {
            KernelStage::Loop(l) => lower_loop(l).map(Some),
            KernelStage::Opaque(_) => Ok(None),
        })
        .collect::<Result<Vec<Option<CompiledLoop>>, _>>()?;
    for (stage, lowered) in module.stages.iter().zip(&lowered) {
        match (stage, lowered) {
            (KernelStage::Opaque(op), _) => interp::run_opaque(op, buffers)?,
            (KernelStage::Loop(_), Some(l)) => {
                let n = l.check(buffers)?;
                if n > 0 {
                    l.check_params(scalars)?;
                    l.run_elementwise(buffers, scalars, n);
                }
            }
            (KernelStage::Loop(_), None) => unreachable!("every loop stage is lowered"),
        }
    }
    Ok(())
}

mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::interp::Interpreter;
    use crate::ir::{BinaryOp, BufferId, BufferRole, IndexWidth, OpaqueOp, ReduceOp, UnaryOp};

    fn both(
        module: &KernelModule,
        bufs: &[Vec<f64>],
        scalars: &[f64],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut a = bufs.to_vec();
        Interpreter::new().execute(module, &mut a, scalars).unwrap();
        let mut b = bufs.to_vec();
        run_exact(module, &mut b, scalars).unwrap();
        (a, b)
    }

    #[test]
    fn closure_matches_interpreter_on_arithmetic() {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut lb = LoopBuilder::new("mix", BufferId(0));
        let x = lb.load(BufferId(0));
        let y = lb.load(BufferId(1));
        let s = lb.param(0);
        let e = lb.unary(UnaryOp::Exp, x);
        let d = lb.binary(BinaryOp::Div, y, e);
        let v = lb.mul(d, s);
        lb.store(BufferId(2), v);
        m.push_loop(lb.finish());
        let bufs = vec![vec![0.5, -1.0, 2.0], vec![3.0, 4.0, 5.0], vec![0.0; 3]];
        let (a, b) = both(&m, &bufs, &[1.25]);
        assert_eq!(a, b);
        assert!(a[2].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn closure_matches_interpreter_on_reductions_and_scalars() {
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("dot", BufferId(0));
        let x = lb.load(BufferId(0));
        let s = lb.load_scalar(BufferId(1));
        let p = lb.mul(x, s);
        lb.reduce(BufferId(2), ReduceOp::Sum, p);
        m.push_loop(lb.finish());
        let bufs = vec![vec![1.0, 2.0, 3.0], vec![2.0], vec![0.5]];
        let (a, b) = both(&m, &bufs, &[]);
        assert_eq!(a, b);
        assert_eq!(a[2][0], 0.5 + 12.0);
    }

    #[test]
    fn scalar_load_of_reduced_buffer_is_not_hoisted() {
        // A loop that reduces into a buffer *and* broadcast-loads it: each
        // element must observe the running accumulator, exactly like the
        // interpreter (this is the case hoisting must not break).
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Reduction);
        let mut lb = LoopBuilder::new("prefixy", BufferId(0));
        let acc = lb.load_scalar(BufferId(1)); // running value
        let x = lb.load(BufferId(0));
        let contrib = lb.mul(x, acc);
        lb.reduce(BufferId(1), ReduceOp::Sum, contrib);
        m.push_loop(lb.finish());
        let bufs = vec![vec![1.0, 2.0, 3.0], vec![1.0]];
        let (a, b) = both(&m, &bufs, &[]);
        assert_eq!(a, b);
        // acc evolves: 1 + 1*1 = 2; 2 + 2*2 = 6; 6 + 3*6 = 24.
        assert_eq!(a[1][0], 24.0);
    }

    #[test]
    fn closure_matches_interpreter_on_opaque_stages() {
        let mut m = KernelModule::new(5);
        m.push_opaque(OpaqueOp::SpMvCsr {
            pos: BufferId(0),
            crd: BufferId(1),
            vals: BufferId(2),
            x: BufferId(3),
            y: BufferId(4),
            index_width: IndexWidth::U32,
        });
        let bufs = vec![
            vec![0.0, 2.0, 3.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0],
            vec![0.0, 0.0],
        ];
        let (a, b) = both(&m, &bufs, &[]);
        assert_eq!(a, b);
        assert_eq!(a[4], vec![14.0, 15.0]);
    }

    #[test]
    fn error_contract_matches_the_interpreter() {
        // Missing scalar parameter.
        let mut m = KernelModule::new(2);
        m.set_role(BufferId(1), BufferRole::Output);
        let mut lb = LoopBuilder::new("scale", BufferId(0));
        let x = lb.load(BufferId(0));
        let p = lb.param(0);
        let v = lb.mul(x, p);
        lb.store(BufferId(1), v);
        m.push_loop(lb.finish());
        let mut bufs = vec![vec![1.0], vec![0.0]];
        assert_eq!(
            run_exact(&m, &mut bufs, &[]),
            Err(ExecError::MissingParam(0))
        );
        // Missing buffer.
        let mut short = vec![vec![1.0]];
        assert!(matches!(
            run_exact(&m, &mut short, &[1.0]),
            Err(ExecError::MissingBuffer(_))
        ));
        // Length mismatch.
        let mut mismatched = vec![vec![1.0, 2.0], vec![0.0]];
        assert!(matches!(
            run_exact(&m, &mut mismatched, &[1.0]),
            Err(ExecError::LengthMismatch { .. })
        ));
    }
}
