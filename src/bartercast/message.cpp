#include "bartercast/message.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bc::bartercast {

BarterCastMessage build_message(const PrivateHistory& history,
                                const MessageSelection& selection,
                                Seconds now) {
  BarterCastMessage msg;
  msg.sender = history.owner();
  msg.sent_at = now;
  // An upper bound on the deduplicated count, so the records grow once.
  const std::size_t size = history.size();
  msg.records.reserve(std::min(size, std::min(selection.nh, size) +
                                         std::min(selection.nr, size)));
  history.for_each_selected(
      selection.nh, selection.nr, [&](const HistoryEntry& e) {
        msg.records.push_back(
            BarterRecord{history.owner(), e.peer, e.uploaded, e.downloaded});
      });
  return msg;
}

BarterCastMessage build_lying_message(const PrivateHistory& history,
                                      const MessageSelection& selection,
                                      Bytes claimed_upload, Seconds now) {
  BC_ASSERT(claimed_upload >= 0);
  BarterCastMessage msg = build_message(history, selection, now);
  for (auto& r : msg.records) {
    r.subject_to_other = claimed_upload;
    r.other_to_subject = 0;
  }
  return msg;
}

}  // namespace bc::bartercast
