// Inventory of every failpoint threaded through the serve stack.
//
// The chaos suite (tests/serve_chaos_test.cpp, `ctest -C chaos`) iterates
// this list and fires each site at least once end-to-end, so adding a
// failpoint here without wiring it into a code path — or wiring one into
// code without listing it here — fails the sweep, not code review.
//
// Naming: serve.<component>.<operation>. Specs and modes are documented in
// util/failpoint.h; sites fire via util::failpoint(name).
#pragma once

#include <cstddef>

namespace syccl::serve {

inline constexpr const char* kServeFailpoints[] = {
    // DiskLibrary entry files: tmp write+fsync, then rename into place.
    "serve.library.entry_write",
    "serve.library.entry_rename",
    // DiskLibrary index: atomic snapshot rewrite + fsynced journal appends.
    "serve.library.snapshot_write",
    "serve.library.snapshot_rename",
    "serve.library.journal_append",
    // Parent-directory fsync after renames (the step that makes the rename
    // itself durable).
    "serve.library.dir_fsync",
    // Quarantine of a corrupt entry at open (error = the quarantine/ dir
    // cannot be created).
    "serve.library.quarantine",
    // Blob decode — forces the corrupt-entry path without editing files.
    "serve.codec.decode",
    // Full-budget synthesis on the broker pool (delay = deterministic slow
    // synthesis for deadline tests; error = synthesis failure propagation).
    "serve.broker.synthesize",
    // Between a miss's library lookup and joining or starting a synthesis
    // (delay = a deterministic window for the entry to land meanwhile;
    // error = the miss fails before any synthesis starts).
    "serve.broker.join",
    // Transport syscalls (eintr storms, hard errors, stalls).
    "serve.socket.read",
    "serve.socket.write",
};

inline constexpr std::size_t kNumServeFailpoints =
    sizeof(kServeFailpoints) / sizeof(kServeFailpoints[0]);

}  // namespace syccl::serve
