// L3 counter-fixture: a delivery callback that owns its message (moved
// into the capture) and reaches the receiver through a pointer stays valid
// until the overlay runs it.
#include <utility>
#include <vector>

namespace net {

class Overlay {
 public:
  template <class Deliver>
  bool schedule_delivery(int from, int to, Deliver deliver);
};

void gossip(Overlay& overlay, std::vector<int>* inbox) {
  std::vector<int> records = {1, 2, 3};
  overlay.schedule_delivery(1, 2, [inbox, records = std::move(records)] {
    inbox->insert(inbox->end(), records.begin(), records.end());
  });
}

}  // namespace net
