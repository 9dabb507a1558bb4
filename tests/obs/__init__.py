#: The one Taint Map client under both coalescing policies, keyed by
#: test id.  ``pooled`` is the per-request leg (coalescing pinned off,
#: one frame per request, as the retired pooled client sent); ``async``
#: is the default timer-free coalescing.
COALESCE_WINDOWS = {"pooled": 0.0, "async": None}
