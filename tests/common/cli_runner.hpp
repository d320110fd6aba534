// Drives the built ompdart_cli binary from tests: the path it was built
// at and a popen runner that captures its output and exit code.
#pragma once

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <sys/wait.h>

#ifndef OMPDART_BINARY_DIR
#define OMPDART_BINARY_DIR "."
#endif

namespace ompdart::test {

inline std::filesystem::path cliPath() {
  return std::filesystem::path(OMPDART_BINARY_DIR) / "ompdart_cli";
}

struct CliResult {
  int exitCode = -1; ///< -1 when the process did not exit normally
  std::string output;
};

/// Runs `ompdart_cli <args>`. `output` holds stdout, plus stderr when
/// `withStderr` is set.
inline CliResult runCli(const std::string &args, bool withStderr = false) {
  CliResult result;
  const std::string command = cliPath().string() + " " + args +
                              (withStderr ? " 2>&1" : " 2>/dev/null");
  FILE *pipe = popen(command.c_str(), "r");
  if (pipe == nullptr)
    return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.output.append(buffer.data(), n);
  const int status = pclose(pipe);
  result.exitCode = (status >= 0 && WIFEXITED(status))
                        ? WEXITSTATUS(status)
                        : -1;
  return result;
}

} // namespace ompdart::test
