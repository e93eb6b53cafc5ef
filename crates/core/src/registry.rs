//! The recoverable-function registry (§2.3 of the paper).
//!
//! Every function `F` executed on the persistent stack has a dual
//! `F.Recover` that the recovery boot invokes with the same arguments.
//! Frames store only a *function id*, never a code address — §3.2
//! explains that return addresses become garbage when the code segment
//! relocates across restarts. Ids must therefore be **stable across
//! program versions and restarts**: the registry is rebuilt from code
//! on every boot and maps each id back to the pair of callables.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::invoke::{PContext, RetBytes};
use crate::PError;

/// Function id of the dummy frame at the bottom of every stack. Never
/// registered and never invoked; recovery stops when only this frame
/// remains.
pub const DUMMY_FUNC_ID: u64 = u64::MAX;

/// A function that can run on the persistent stack: the operation
/// itself plus the recover dual invoked after a crash (§2.3).
///
/// Both entry points receive the same serialized arguments. `recover`
/// must be written so that it completes or rolls back the operation
/// *regardless of whether the crash hit `call` or a previous `recover`*
/// — repeated failures re-run `recover` on the same frame. A function
/// run as a task must also allow `recover` after `call` completed, and
/// after whatever ran since: its root frame's `RET` is made durable by
/// its worker's next `CALL` (the argument is in [`crate::invoke`]).
pub trait RecoverableFunction: Send + Sync {
    /// Executes the operation. Nested invocations go through
    /// [`PContext::call`] so that each gets its own persistent frame.
    ///
    /// # Errors
    ///
    /// A propagated crash, or an application error (which aborts the
    /// enclosing task).
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError>;

    /// Completes or rolls back an interrupted execution of `call`.
    /// Invoked by the recovery boot, top frame first. May itself make
    /// nested [`PContext::call`] invocations.
    ///
    /// # Errors
    ///
    /// Same contract as [`RecoverableFunction::call`].
    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError>;

    /// `true` if `call`, run as a root frame, awaits its own frame
    /// ([`PContext::frame_durable`]) before anything it publishes can be
    /// seen, so the runtime may start it with the frame's `CALL` still
    /// in flight. Default `false`: the frame is durable before `call`
    /// starts. Either way the runtime awaits it before a nested call,
    /// the abort unwind and the `RET` (see [`crate::invoke`]).
    fn awaits_own_frame(&self) -> bool {
        false
    }
}

/// Adapter building a [`RecoverableFunction`] from two closures.
///
/// ```
/// use pstack_core::{FnPair, RecoverableFunction};
///
/// let f = FnPair::new(
///     |_ctx, _args| Ok(None),
///     |_ctx, _args| Ok(None),
/// );
/// let _boxed: std::sync::Arc<dyn RecoverableFunction> = std::sync::Arc::new(f);
/// ```
pub struct FnPair<C, R> {
    call_fn: C,
    recover_fn: R,
}

impl<C, R> FnPair<C, R>
where
    C: Fn(&mut PContext<'_>, &[u8]) -> Result<Option<RetBytes>, PError> + Send + Sync,
    R: Fn(&mut PContext<'_>, &[u8]) -> Result<Option<RetBytes>, PError> + Send + Sync,
{
    /// Wraps a call closure and its recover dual.
    pub fn new(call_fn: C, recover_fn: R) -> Self {
        FnPair {
            call_fn,
            recover_fn,
        }
    }
}

impl<C, R> RecoverableFunction for FnPair<C, R>
where
    C: Fn(&mut PContext<'_>, &[u8]) -> Result<Option<RetBytes>, PError> + Send + Sync,
    R: Fn(&mut PContext<'_>, &[u8]) -> Result<Option<RetBytes>, PError> + Send + Sync,
{
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        (self.call_fn)(ctx, args)
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        (self.recover_fn)(ctx, args)
    }
}

/// Maps stable function ids to their [`RecoverableFunction`] pairs.
///
/// Built (identically!) by every boot of the program, then shared
/// read-only with the runtime. Cloning is cheap: entries are
/// reference-counted.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    funcs: HashMap<u64, Arc<dyn RecoverableFunction>>,
}

impl fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ids: Vec<u64> = self.funcs.keys().copied().collect();
        ids.sort_unstable();
        f.debug_struct("FunctionRegistry")
            .field("ids", &ids)
            .finish()
    }
}

impl FunctionRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `func` under `id`.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] if `id` is already taken or is the
    /// reserved dummy id.
    pub fn register(&mut self, id: u64, func: Arc<dyn RecoverableFunction>) -> Result<u64, PError> {
        if id == DUMMY_FUNC_ID {
            return Err(PError::InvalidConfig(format!(
                "function id {id:#x} is reserved for the dummy frame"
            )));
        }
        if self.funcs.contains_key(&id) {
            return Err(PError::InvalidConfig(format!(
                "function id {id:#x} is already registered"
            )));
        }
        self.funcs.insert(id, func);
        Ok(id)
    }

    /// Registers a call/recover closure pair under `id` and returns the
    /// id for convenience.
    ///
    /// # Errors
    ///
    /// Same as [`FunctionRegistry::register`].
    pub fn register_pair<C, R>(&mut self, id: u64, call_fn: C, recover_fn: R) -> Result<u64, PError>
    where
        C: Fn(&mut PContext<'_>, &[u8]) -> Result<Option<RetBytes>, PError> + Send + Sync + 'static,
        R: Fn(&mut PContext<'_>, &[u8]) -> Result<Option<RetBytes>, PError> + Send + Sync + 'static,
    {
        self.register(id, Arc::new(FnPair::new(call_fn, recover_fn)))
    }

    /// Looks up the function registered under `id`.
    ///
    /// # Errors
    ///
    /// [`PError::UnknownFunction`] if nothing is registered there.
    pub fn get(&self, id: u64) -> Result<Arc<dyn RecoverableFunction>, PError> {
        self.funcs
            .get(&id)
            .cloned()
            .ok_or(PError::UnknownFunction(id))
    }

    /// Returns `true` if `id` is registered.
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        self.funcs.contains_key(&id)
    }

    /// Number of registered functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Returns `true` if nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> Arc<dyn RecoverableFunction> {
        Arc::new(FnPair::new(|_, _| Ok(None), |_, _| Ok(None)))
    }

    #[test]
    fn register_and_get() {
        let mut r = FunctionRegistry::new();
        assert!(r.is_empty());
        r.register(1, noop()).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(1));
        assert!(r.get(1).is_ok());
        assert!(matches!(r.get(2), Err(PError::UnknownFunction(2))));
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut r = FunctionRegistry::new();
        r.register(1, noop()).unwrap();
        assert!(matches!(
            r.register(1, noop()),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn dummy_id_rejected() {
        let mut r = FunctionRegistry::new();
        assert!(matches!(
            r.register(DUMMY_FUNC_ID, noop()),
            Err(PError::InvalidConfig(_))
        ));
    }

    #[test]
    fn clone_shares_entries() {
        let mut r = FunctionRegistry::new();
        r.register_pair(3, |_, _| Ok(None), |_, _| Ok(None))
            .unwrap();
        let r2 = r.clone();
        assert!(r2.contains(3));
    }

    #[test]
    fn debug_lists_ids() {
        let mut r = FunctionRegistry::new();
        r.register(5, noop()).unwrap();
        assert!(format!("{r:?}").contains('5'));
    }
}
