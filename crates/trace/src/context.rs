//! Per-request trace context: a thread-local request id.
//!
//! The serve path assigns every HTTP request an `X-Itdb-Request-Id` and
//! installs it here for the duration of the evaluation; [`crate::emit`]
//! stamps the current id onto every [`crate::Event`] it builds, so a
//! JSONL stream (or a flight-recorder ring) can be filtered down to one
//! request after the fact. The id lives **on the event**, not in ambient
//! state, because rings and fan-out queues render events on other
//! threads later, where this thread-local is long gone.
//!
//! The id is an `Arc<str>`: cloning it into thousands of events costs a
//! refcount bump, not an allocation. [`set_request_id`] returns an RAII
//! guard that restores the previous id on drop, so nested scopes (a
//! request evaluating inside a request, in tests) unwind correctly, and
//! a panicking handler cannot leak its id onto the next request handled
//! by the same pooled worker.

use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Restores the previously-installed request id when dropped.
#[must_use = "dropping the guard immediately uninstalls the request id"]
pub struct RequestIdGuard {
    prev: Option<Arc<str>>,
}

impl Drop for RequestIdGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `id` as the current thread's request id until the returned
/// guard drops (which restores whatever was installed before).
pub fn set_request_id(id: &str) -> RequestIdGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::from(id)));
    RequestIdGuard { prev }
}

/// The request id installed on this thread, if any.
pub fn current_request_id() -> Option<Arc<str>> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_restores_previous_id() {
        assert_eq!(current_request_id(), None);
        let outer = set_request_id("req-outer");
        assert_eq!(current_request_id().as_deref(), Some("req-outer"));
        {
            let _inner = set_request_id("req-inner");
            assert_eq!(current_request_id().as_deref(), Some("req-inner"));
        }
        assert_eq!(current_request_id().as_deref(), Some("req-outer"));
        drop(outer);
        assert_eq!(current_request_id(), None);
    }
}
