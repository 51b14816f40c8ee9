// Spawning one child process and collecting what it printed and used.
#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct ChildRun {
  bool ok = false;           // spawned, exited normally with status 0
  std::string error;         // why not, when !ok
  std::string out;           // everything the child wrote to stdout
  uint64_t spawn_ns = 0;     // steady clock just before the spawn call
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
};

// Runs `argv` (argv[0] is the executable path) to completion, capturing its
// stdout through a pipe; stderr is inherited.
ChildRun RunChild(const std::vector<std::string>& argv);

// Runs `fn` in a forked copy of this process and hands back the bytes it
// wrote to `out`; the copy exits right after. Repeated work then starts
// from the same heap each time and leaves no garbage behind in this
// process. Call only while this process has a single thread.
bool RunInFork(const std::function<bool(std::string* out)>& fn,
               std::string* result);

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
