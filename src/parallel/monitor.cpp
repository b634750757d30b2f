#include "parallel/monitor.hpp"

#include "obs/trace.hpp"

namespace fdml {

void monitor_main(Transport& transport) {
  obs::set_thread_name("monitor");
  while (auto message = transport.recv()) {
    if (message->tag == MessageTag::kShutdown) break;
  }
}

}  // namespace fdml
