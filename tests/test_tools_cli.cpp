// Black-box checks of the tool binaries' exit-code contract: unknown
// subcommands and unknown/unused flags must fail loudly (exit 2 plus a
// usage message) instead of warning and carrying on -- and BEFORE any
// side effect (starting a server, spawning replicas, writing bench
// artifacts). Binary paths are injected by CMake as UPA_CLI_BINARY,
// UPA_SERVED_BINARY, UPA_LOADGEN_BINARY, and UPA_DISPATCH_BINARY. The
// daemons' other half of the contract: a SIGTERM drains and exits 0,
// even one that lands the moment the listener is up, and prints an exit
// summary rendered from the daemon's metrics snapshot.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "upa/serve/client.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_tool(const std::string& binary,
                   const std::string& arguments) {
  const std::string command = binary + " " + arguments + " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    result.output.append(chunk.data(), n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

RunResult run_cli(const std::string& arguments) {
  return run_tool(UPA_CLI_BINARY, arguments);
}

TEST(ToolsCli, HelpExitsZeroAndListsCompanionTools) {
  const RunResult r = run_cli("help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("commands:"), std::string::npos);
  // The serve-layer entry points are registered in the help text.
  EXPECT_NE(r.output.find("upa_served"), std::string::npos);
  EXPECT_NE(r.output.find("upa_loadgen"), std::string::npos);
}

TEST(ToolsCli, UnknownSubcommandExitsTwoWithUsage) {
  const RunResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(ToolsCli, UnknownFlagExitsTwoWithUsage) {
  const RunResult r = run_cli("services --frobnicate 3");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option --frobnicate"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  // Fail fast: the typo is caught before the command runs, so no
  // results were computed or printed before the failure.
  EXPECT_EQ(r.output.find("Web service"), std::string::npos);
}

TEST(ToolsCli, FlagForWrongCommandExitsTwo) {
  // --target-minutes belongs to `design`; passing it to `user` is a
  // typo'd invocation, not a soft warning.
  const RunResult r = run_cli("user --target-minutes 5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option --target-minutes"),
            std::string::npos);
  EXPECT_EQ(r.output.find("user-perceived availability"), std::string::npos);
}

TEST(ToolsCli, MisspelledOptionalFlagFailsBeforeAnyWork) {
  // The regression this pins: --abandon is an inject option, not a
  // trace one. Before the pre-dispatch check, `trace --abandon 0.5`
  // ran the whole instrumented simulation, printed its results, and
  // only then exited 2 with the flag silently ignored.
  const RunResult r = run_cli("trace --abandon 0.5 --sessions 5 --reps 1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option --abandon"), std::string::npos);
  EXPECT_EQ(r.output.find("instrumented run"), std::string::npos);
}

TEST(ToolsCli, ValidCommandStillExitsZero) {
  const RunResult r = run_cli("services");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Web service"), std::string::npos);
}

TEST(ToolsCli, ValidOverridesAreAccepted) {
  const RunResult r = run_cli("user --class A --nw 3 --cache on");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("user-perceived availability"), std::string::npos);
  EXPECT_NE(r.output.find("evaluation cache"), std::string::npos);
}

// Everything except the run-dependent cache summary lines: the model
// output must be byte-identical between a cold run and a warm-from-disk
// re-run of the same command.
std::string without_cache_lines(const std::string& output) {
  std::string kept;
  std::size_t start = 0;
  while (start <= output.size()) {
    const std::size_t end = output.find('\n', start);
    const std::string line =
        output.substr(start, end == std::string::npos ? end : end - start);
    if (line.find("cache") == std::string::npos &&
        line.find("hits /") == std::string::npos) {
      kept += line;
      kept += '\n';
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return kept;
}

TEST(ToolsCliPersist, InjectRerunWarmsFromDiskAndMatchesByteForByte) {
  std::string dir = "/tmp/upa_cli_persist_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  const std::string command =
      "inject --sessions 200 --reps 2 --cache-dir " + dir;

  const RunResult cold = run_cli(command);
  EXPECT_EQ(cold.exit_code, 0);
  // First run found an empty directory and wrote the active segment.
  EXPECT_NE(cold.output.find("0 records replayed"), std::string::npos);
  EXPECT_EQ(cold.output.find("0 records appended"), std::string::npos);

  const RunResult warm = run_cli(command);
  EXPECT_EQ(warm.exit_code, 0);
  // Second run pre-warmed from the segment: every stored value replays,
  // nothing new is appended (the dedupe keeps the directory stable).
  EXPECT_NE(warm.output.find("1 segments loaded"), std::string::npos);
  EXPECT_EQ(warm.output.find("0 records replayed"), std::string::npos);
  EXPECT_NE(warm.output.find("0 records appended"), std::string::npos);
  // The replay contract, black-box: identical model output.
  EXPECT_EQ(without_cache_lines(cold.output),
            without_cache_lines(warm.output));

  const RunResult cleanup = run_tool("rm", "-rf " + dir);
  EXPECT_EQ(cleanup.exit_code, 0);
}

TEST(ToolsCliPersist, CacheDirWithCacheOffIsAnError) {
  const RunResult r = run_cli("inject --cache off --cache-dir /tmp/nope");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--cache-dir requires --cache on"),
            std::string::npos);
}

// --- Serve-layer tools share the same allowlist contract ----------------

TEST(ToolsCli, ServedTypoFlagExitsTwoBeforeBinding) {
  // A typo'd flag must not start a server: no listening line, no bound
  // port, just the diagnostic and usage.
  const RunResult r = run_tool(UPA_SERVED_BINARY, "--workerz 2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--workerz'"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  EXPECT_EQ(r.output.find("listening on"), std::string::npos);
}

TEST(ToolsCli, LoadgenTypoFlagExitsTwoBeforeSpawning) {
  // --replicaz on farm mode: caught before any replica is spawned or a
  // bench artifact written, even though --served-bin is present.
  const RunResult r = run_tool(
      UPA_LOADGEN_BINARY,
      "--mode farm --served-bin " + std::string(UPA_SERVED_BINARY) +
          " --replicaz 5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--replicaz'"),
            std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  EXPECT_EQ(r.output.find("sent="), std::string::npos);
}

TEST(ToolsCli, LoadgenFarmKillsZeroRunsTheNoFailureBaseline) {
  // --kills 0 is an empty kill schedule (the pooled-queue baseline),
  // not an error about an empty fault plan.
  const std::string out = ::testing::TempDir() + "upa_farm_kills0.json";
  std::remove(out.c_str());
  const RunResult r = run_tool(
      UPA_LOADGEN_BINARY,
      "--mode farm --served-bin " + std::string(UPA_SERVED_BINARY) +
          " --kills 0 --requests 40 --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(out);
  std::stringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"farm_failover_n3_kills0\""),
            std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"kills\": 0,"), std::string::npos)
      << json.str();
  std::remove(out.c_str());
}

TEST(ToolsCli, ServedPeersWithoutAntiEntropyExitsOneBeforeBinding) {
  // --peers alone would start no anti-entropy agent and leave the
  // replica cold; it is refused like --anti-entropy-ms without --peers.
  // `timeout` bounds the run of a build that would start serving.
  const RunResult r = run_tool(
      "timeout", "10 " + std::string(UPA_SERVED_BINARY) +
                     " --port 0 --peers 127.0.0.1:1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("--peers requires --anti-entropy-ms"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("listening on"), std::string::npos);
}

TEST(ToolsCli, LoadgenFlagFromAnotherModeExitsTwo) {
  // --kill-at belongs to farm mode; smoke mode must reject it rather
  // than silently ignore it.
  const RunResult r =
      run_tool(UPA_LOADGEN_BINARY, "--mode smoke --kill-at 2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--kill-at'"),
            std::string::npos);
}

TEST(ToolsCli, DispatchTypoFlagExitsTwoBeforeListening) {
  const RunResult r = run_tool(
      UPA_DISPATCH_BINARY, "--upstreams 127.0.0.1:1 --retrees 5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--retrees'"),
            std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  EXPECT_EQ(r.output.find("listening on"), std::string::npos);
}

// --- Daemons drain on a SIGTERM from the first moment they serve ------

/// A loopback port nobody is bound to right now (the kernel's pick for
/// an ephemeral bind, released at once).
std::uint16_t unused_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A daemon child process with stdout and stderr on one pipe.
struct Daemon {
  pid_t pid = -1;
  int output_fd = -1;
};

Daemon spawn_daemon(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  return {pid, fds[0]};
}

/// Reads the child's output to EOF and reaps it.
RunResult finish_daemon(Daemon& daemon) {
  RunResult result;
  std::array<char, 4096> chunk{};
  ssize_t n = 0;
  while ((n = ::read(daemon.output_fd, chunk.data(), chunk.size())) > 0) {
    result.output.append(chunk.data(), static_cast<std::size_t>(n));
  }
  ::close(daemon.output_fd);
  int status = 0;
  ::waitpid(daemon.pid, &status, 0);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Polls `ping` until it answers ok; false if the child exits first
/// (its port was taken) or 10 s pass.
bool wait_for_ping(const Daemon& daemon, std::uint16_t port) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(daemon.pid, &status, WNOHANG) == daemon.pid) return false;
    try {
      upa::serve::Client client;
      client.connect("127.0.0.1", port, 0.5);
      if (client.call("ping", upa::serve::Json()).ok()) return true;
    } catch (const std::exception&) {
      // not listening yet
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Spawns `binary --port P extra...` on a fresh port until its first ok
/// ping (retrying on a port race); `port` receives P.
Daemon spawn_serving(const std::string& binary,
                     const std::vector<std::string>& extra,
                     std::uint16_t& port) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    port = unused_port();
    std::vector<std::string> argv = {binary, "--port", std::to_string(port)};
    argv.insert(argv.end(), extra.begin(), extra.end());
    Daemon daemon = spawn_daemon(argv);
    if (daemon.pid <= 0) break;
    if (wait_for_ping(daemon, port)) return daemon;
    ::kill(daemon.pid, SIGKILL);
    (void)finish_daemon(daemon);
  }
  ADD_FAILURE() << binary << " never answered ping";
  return {};
}

/// SIGTERM at the first ok ping, 20 times: every round must drain and
/// exit 0 rather than die of the signal.
void expect_sigterm_drains(const std::string& binary,
                           const std::vector<std::string>& extra) {
  for (int round = 0; round < 20; ++round) {
    std::uint16_t port = 0;
    Daemon daemon = spawn_serving(binary, extra, port);
    ASSERT_GT(daemon.pid, 0);
    ::kill(daemon.pid, SIGTERM);
    const RunResult r = finish_daemon(daemon);
    EXPECT_EQ(r.exit_code, 0) << "round " << round << ":\n" << r.output;
    EXPECT_NE(r.output.find("draining"), std::string::npos)
        << "round " << round << ":\n" << r.output;
  }
}

/// One ok ping, then SIGTERM: the drained daemon's exit and output.
RunResult drain_after_one_ping(const std::string& binary,
                               const std::vector<std::string>& extra) {
  std::uint16_t port = 0;
  Daemon daemon = spawn_serving(binary, extra, port);
  if (daemon.pid <= 0) return {};
  ::kill(daemon.pid, SIGTERM);
  return finish_daemon(daemon);
}

TEST(ToolsCli, ServedDrainsOnSigtermRightAfterStart) {
  expect_sigterm_drains(UPA_SERVED_BINARY, {});
}

TEST(ToolsCli, DispatchDrainsOnSigtermRightAfterStart) {
  std::uint16_t upstream_port = 0;
  Daemon upstream = spawn_serving(UPA_SERVED_BINARY, {}, upstream_port);
  ASSERT_GT(upstream.pid, 0);
  expect_sigterm_drains(
      UPA_DISPATCH_BINARY,
      {"--upstreams", "127.0.0.1:" + std::to_string(upstream_port)});
  ::kill(upstream.pid, SIGTERM);
  EXPECT_EQ(finish_daemon(upstream).exit_code, 0);
}

// The exit summaries render the daemons' metrics snapshots.

TEST(ToolsCli, ServedExitSummaryCountsTheOnePing) {
  const RunResult r = drain_after_one_ping(UPA_SERVED_BINARY, {});
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("upa_served: done. accepted=1 rejected=0 "
                          "completed=1 requests=1 deadline_missed=0 "
                          "protocol_errors=0 max_in_system=1\n"),
            std::string::npos)
      << r.output;
}

TEST(ToolsCli, DispatchExitSummaryCountsTheOnePing) {
  std::uint16_t upstream_port = 0;
  Daemon upstream = spawn_serving(UPA_SERVED_BINARY, {}, upstream_port);
  ASSERT_GT(upstream.pid, 0);
  const RunResult r = drain_after_one_ping(
      UPA_DISPATCH_BINARY,
      {"--upstreams", "127.0.0.1:" + std::to_string(upstream_port)});
  ::kill(upstream.pid, SIGTERM);
  EXPECT_EQ(finish_daemon(upstream).exit_code, 0);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("upa_dispatch: done. requests=1 ok=1 rejected=0 "
                          "deadline=0 error=0 transport=0 retries=0 "
                          "failovers=0 exhausted=0\n"),
            std::string::npos)
      << r.output;
}

}  // namespace
