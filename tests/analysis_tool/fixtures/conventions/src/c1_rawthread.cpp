// bc-analyze fixture: raw concurrency primitives in src/ (rule
// raw-primitive, C1).
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

std::mutex work_lock;             // line 8
std::condition_variable work_cv;  // line 9
std::atomic<int> work_counter;    // line 10

void spin() {
  std::thread worker([] {});  // line 13
  worker.join();
}

thread_local int per_thread_scratch = 0;  // line 17
