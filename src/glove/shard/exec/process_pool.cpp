#include "glove/shard/exec/process_pool.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "glove/obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>
#define GLOVE_EXEC_HAVE_PROCESS_POOL 1
#endif

namespace glove::shard::exec {

namespace fs = std::filesystem;

std::string resolve_worker_binary(const std::string& configured) {
  if (!configured.empty()) {
    if (fs::exists(configured)) return configured;
    throw std::invalid_argument{"configured shard worker binary not found: " +
                                configured};
  }
  if (const char* env = std::getenv("GLOVE_SHARD_WORKER_BIN");
      env != nullptr && *env != '\0') {
    if (fs::exists(env)) return env;
    throw std::invalid_argument{
        std::string{"GLOVE_SHARD_WORKER_BIN points at a missing file: "} +
        env};
  }
  // Build-tree discovery relative to the running executable: binaries in
  // build/examples, build/tests, build/bench and the worker's own
  // directory all resolve without configuration.
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const fs::path dir = exe.parent_path();
    const fs::path candidates[] = {
        dir / "glove_shard_worker",
        dir / ".." / "tools" / "shard_worker" / "glove_shard_worker",
        dir / ".." / ".." / "tools" / "shard_worker" / "glove_shard_worker",
        dir / "tools" / "shard_worker" / "glove_shard_worker",
    };
    for (const fs::path& candidate : candidates) {
      if (fs::exists(candidate)) return candidate.lexically_normal().string();
    }
  }
  throw std::invalid_argument{
      "cannot locate the glove_shard_worker binary; set "
      "GLOVE_SHARD_WORKER_BIN or the sharded worker_binary config"};
}

#if defined(GLOVE_EXEC_HAVE_PROCESS_POOL)

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error{
      what + ": " + std::error_code(errno, std::generic_category()).message()};
}

}  // namespace

ProcessPoolExecutor::ProcessPoolExecutor(const ShardConfig& config,
                                         std::string source_path,
                                         std::uint64_t total_fingerprints,
                                         std::size_t workers)
    : worker_binary_{resolve_worker_binary(config.worker_binary)} {
  hello_.source_path = std::move(source_path);
  hello_.expected_fingerprints = total_fingerprints;
  hello_.glove = config.glove;

  static const obs::Counter c_spawned = obs::counter("exec.workers_spawned");
  workers_.resize(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) spawn_worker(i);
    // Handshake after all spawns so a version or source mismatch names
    // the first worker that rejected it.
    const std::vector<std::uint8_t> hello = encode_hello(hello_);
    for (std::size_t i = 0; i < workers; ++i) {
      write_frame(workers_[i].fd, FrameType::kHello, hello);
    }
    for (std::size_t i = 0; i < workers; ++i) {
      Frame frame;
      if (!read_frame(workers_[i].fd, frame)) {
        fail_worker(i, "exited during the hello handshake");
      }
      if (frame.type == FrameType::kError) {
        fail_worker(i, "rejected the hello: " + decode_error(frame.payload));
      }
      if (frame.type != FrameType::kHelloAck) {
        fail_worker(i, "answered the hello with an unexpected frame");
      }
      workers_[i].stats.worker = i;
      c_spawned.add();
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

ProcessPoolExecutor::~ProcessPoolExecutor() { shutdown(); }

void ProcessPoolExecutor::spawn_worker(std::size_t index) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw_errno("socketpair for shard worker " + std::to_string(index));
  }
  const fs::path stderr_path =
      fs::temp_directory_path() /
      ("glove_shard_worker-" + std::to_string(::getpid()) + "-" +
       std::to_string(index) + ".stderr");
  const int stderr_fd = ::open(stderr_path.c_str(),
                               O_CREAT | O_WRONLY | O_TRUNC, 0600);
  if (stderr_fd < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw_errno("open stderr spill file " + stderr_path.string());
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    ::close(stderr_fd);
    throw_errno("fork shard worker " + std::to_string(index));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.  Drop every fd the
    // worker must not inherit — the coordinator ends of sibling sockets
    // would otherwise keep peers alive past their death.
    ::dup2(stderr_fd, 2);
    ::close(stderr_fd);
    ::close(sv[0]);
    for (const Worker& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    char fd_arg[32];
    std::snprintf(fd_arg, sizeof fd_arg, "--socket-fd=%d", sv[1]);
    ::execl(worker_binary_.c_str(), "glove_shard_worker", fd_arg,
            static_cast<char*>(nullptr));
    ::dprintf(2, "exec %s failed: errno %d\n", worker_binary_.c_str(), errno);
    ::_exit(127);
  }
  ::close(sv[1]);
  ::close(stderr_fd);
  workers_[index].fd = sv[0];
  workers_[index].pid = pid;
  workers_[index].stderr_path = stderr_path.string();
}

void ProcessPoolExecutor::send_job(std::size_t worker, const ShardJob& job) {
  RunShardRequest request;
  request.shard = job.shard;
  request.member_ids = *job.member_ids;
  write_frame(workers_[worker].fd, FrameType::kRunShard,
              encode_run_shard(request));
}

std::string ProcessPoolExecutor::stderr_tail(std::size_t worker) const {
  std::ifstream in{workers_[worker].stderr_path, std::ios::binary};
  if (!in) return {};
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  constexpr std::streamoff kTailBytes = 2048;
  in.seekg(size > kTailBytes ? size - kTailBytes : 0);
  std::string tail((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r')) {
    tail.pop_back();
  }
  return tail;
}

void ProcessPoolExecutor::fail_worker(std::size_t worker,
                                      const std::string& what) {
  Worker& w = workers_[worker];
  std::string message = "shard worker " + std::to_string(worker) + " (pid " +
                        std::to_string(w.pid) + ") " + what;
  if (w.pid > 0) {
    int status = 0;
    ::kill(static_cast<pid_t>(w.pid), SIGKILL);
    ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
    w.pid = -1;
  }
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  if (const std::string tail = stderr_tail(worker); !tail.empty()) {
    message += "; stderr tail: " + tail;
  }
  // The remaining workers are torn down by shutdown() when this executor
  // unwinds — no orphan ever outlives the run.
  throw std::runtime_error{message};
}

std::vector<ShardResult> ProcessPoolExecutor::run_batch(
    std::vector<ShardJob> jobs, const ShardResultFn& on_result,
    const util::RunHooks& hooks) {
  // Dispatch accounting specific to this backend.
  static const obs::Counter c_jobs = obs::counter("exec.jobs_dispatched");

  std::vector<ShardResult> results(jobs.size());
  std::vector<WorkerQueue> queues(workers_.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Static round-robin across the whole run: per-worker job counts in
    // the report are reproducible, independent of scheduling noise.
    queues[next_worker_].jobs.push_back(j);
    next_worker_ = (next_worker_ + 1) % workers_.size();
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (queues[w].jobs.empty()) continue;
    send_job(w, jobs[queues[w].jobs.front()]);
    queues[w].in_flight = true;
    c_jobs.add();
  }

  std::size_t remaining = jobs.size();
  bool cancel_signalled = false;
  while (remaining > 0) {
    if (hooks.cancelled() && !cancel_signalled) {
      // Workers poll their cancellation flag inside the GLOVE loops; the
      // in-flight jobs come back as kError("operation cancelled").
      for (const Worker& w : workers_) {
        if (w.pid > 0) ::kill(static_cast<pid_t>(w.pid), SIGUSR1);
      }
      cancel_signalled = true;
    }
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_worker;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!queues[w].in_flight) continue;
      fds.push_back(pollfd{workers_[w].fd, POLLIN, 0});
      fd_worker.push_back(w);
    }
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll on shard worker sockets");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t w = fd_worker[i];
      WorkerQueue& queue = queues[w];
      Frame frame;
      bool alive = false;
      try {
        alive = read_frame(workers_[w].fd, frame);
      } catch (const std::exception& e) {
        fail_worker(w, std::string{"connection broke: "} + e.what());
      }
      if (!alive) fail_worker(w, "exited mid-run");
      if (frame.type == FrameType::kError) {
        const std::string message = decode_error(frame.payload);
        if (hooks.cancelled()) throw util::CancelledError{};
        fail_worker(w, "reported an error: " + message);
      }
      if (frame.type != FrameType::kShardDone) {
        fail_worker(w, "sent an unexpected frame type");
      }

      const std::size_t j = queue.jobs[queue.next];
      const ShardJob& job = jobs[j];
      ShardDoneReply reply = decode_shard_done(frame.payload);
      if (reply.shard != job.shard) {
        fail_worker(w, "answered for shard " + std::to_string(reply.shard) +
                           " while running shard " +
                           std::to_string(job.shard));
      }
      const std::size_t members = job.member_ids->size();
      // Fold the worker's counter increments (the core.heap.* and
      // source-side counters that ticked in its address space) into this
      // process's registry: the engine's before/after delta then reports
      // the same totals an in-process run would.
      for (const auto& [name, value] : reply.counter_deltas) {
        if (!obs::valid_metric_name(name)) {
          fail_worker(w, "returned an invalid obs counter name");
        }
        obs::counter(name).add(value);
      }

      ShardResult& out = results[j];
      out.timing.shard = job.shard;
      out.timing.input_fingerprints = members;
      out.timing.init_seconds = reply.init_seconds;
      out.timing.merge_seconds = reply.merge_seconds;
      out.timing.total_seconds = reply.total_seconds;
      out.timing.output_groups = reply.groups.size();
      out.stats.merges = reply.merges;
      out.stats.deleted_samples = reply.deleted_samples;
      out.stats.discarded_fingerprints = reply.discarded_fingerprints;
      out.stats.stretch_evaluations = reply.stretch_evaluations;
      out.stats.init_seconds = reply.init_seconds;
      out.stats.merge_seconds = reply.merge_seconds;
      out.groups = std::move(reply.groups);

      Worker& worker = workers_[w];
      worker.stats.jobs += 1;
      worker.stats.fingerprints += members;
      worker.stats.groups += out.groups.size();
      worker.stats.busy_seconds += reply.total_seconds;

      on_result(out);
      queue.next += 1;
      queue.in_flight = false;
      remaining -= 1;
      if (queue.next < queue.jobs.size()) {
        send_job(w, jobs[queue.jobs[queue.next]]);
        queue.in_flight = true;
        c_jobs.add();
      }
    }
  }
  hooks.throw_if_cancelled();
  return results;
}

std::vector<ExecWorkerStats> ProcessPoolExecutor::worker_stats() const {
  std::vector<ExecWorkerStats> stats;
  stats.reserve(workers_.size());
  for (const Worker& w : workers_) stats.push_back(w.stats);
  return stats;
}

std::vector<long> ProcessPoolExecutor::worker_pids() const {
  std::vector<long> pids;
  pids.reserve(workers_.size());
  for (const Worker& w : workers_) pids.push_back(w.pid);
  return pids;
}

void ProcessPoolExecutor::shutdown() noexcept {
  for (Worker& w : workers_) {
    if (w.fd < 0) continue;
    try {
      write_frame(w.fd, FrameType::kShutdown, {});
    } catch (...) {
      // Already dead; reaped below.
    }
    ::close(w.fd);
    w.fd = -1;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (Worker& w : workers_) {
    if (w.pid <= 0) continue;
    int status = 0;
    for (;;) {
      const pid_t reaped =
          ::waitpid(static_cast<pid_t>(w.pid), &status, WNOHANG);
      if (reaped != 0) break;  // exited (or already gone)
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(static_cast<pid_t>(w.pid), SIGKILL);
        ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    w.pid = -1;
  }
  for (Worker& w : workers_) {
    if (w.stderr_path.empty()) continue;
    std::error_code ec;
    fs::remove(w.stderr_path, ec);
    w.stderr_path.clear();
  }
}

#else  // !GLOVE_EXEC_HAVE_PROCESS_POOL

ProcessPoolExecutor::ProcessPoolExecutor(const ShardConfig&, std::string,
                                         std::uint64_t, std::size_t) {
  throw std::invalid_argument{
      "the process shard executor requires a POSIX platform"};
}

ProcessPoolExecutor::~ProcessPoolExecutor() = default;

std::vector<ShardResult> ProcessPoolExecutor::run_batch(std::vector<ShardJob>,
                                                        const ShardResultFn&,
                                                        const util::RunHooks&) {
  throw std::invalid_argument{
      "the process shard executor requires a POSIX platform"};
}

std::vector<ExecWorkerStats> ProcessPoolExecutor::worker_stats() const {
  return {};
}

std::vector<long> ProcessPoolExecutor::worker_pids() const { return {}; }

void ProcessPoolExecutor::spawn_worker(std::size_t) {}
void ProcessPoolExecutor::send_job(std::size_t, const ShardJob&) {}
void ProcessPoolExecutor::fail_worker(std::size_t, const std::string& what) {
  throw std::runtime_error{what};
}
std::string ProcessPoolExecutor::stderr_tail(std::size_t) const { return {}; }
void ProcessPoolExecutor::shutdown() noexcept {}

#endif  // GLOVE_EXEC_HAVE_PROCESS_POOL

}  // namespace glove::shard::exec
