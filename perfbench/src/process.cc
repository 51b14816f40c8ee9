#include "process.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "spans.h"

extern char** environ;

namespace perfbench {

ChildRun RunChild(const std::vector<std::string>& argv) {
  ChildRun run;
  int fds[2];
  if (pipe(fds) != 0) {
    run.error = std::string("pipe: ") + std::strerror(errno);
    return run;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  pid_t pid = 0;
  run.spawn_ns = NowNs();
  const int spawned =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    run.error = std::string("posix_spawn: ") + std::strerror(spawned);
    return run;
  }

  char buffer[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      run.out.append(buffer, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);

  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      run.error = std::string("wait4: ") + std::strerror(errno);
      return run;
    }
  }
  run.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  run.major_faults = static_cast<uint64_t>(usage.ru_majflt);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    run.error = "child exited abnormally (status " + std::to_string(status) +
                ")";
    return run;
  }
  run.ok = true;
  return run;
}

bool RunInFork(const std::function<bool(std::string* out)>& fn,
               std::string* result) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);  // the copy must not flush our buffered output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    const bool ok = fn(&out);
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      result->append(buffer, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
