// The process log level, and nothing else: no code in the tree logs. The
// benchmark harness (perfbench/src/main.cpp) still raises the level to
// Error before it runs a workload, so these two names stay until the next
// benchmark change drops that call.
#pragma once

namespace bc {

enum class LogLevel { Error };

class Logger {
 public:
  static Logger& instance() {
    static Logger logger;
    return logger;
  }

  void set_level(LogLevel /*level*/) {}

 private:
  Logger() = default;
};

}  // namespace bc
