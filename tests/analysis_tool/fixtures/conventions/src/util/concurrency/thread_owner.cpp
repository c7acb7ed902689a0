// check_conventions fixture: src/util/concurrency/ implements the annotated
// wrappers, so raw primitives are allowed here.
#include <mutex>

std::mutex wrapper_lock;
