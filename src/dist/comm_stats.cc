#include "dist/comm_stats.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dismastd {

std::string CommStats::ToString() const {
  std::string text = "messages=" + FormatWithCommas(messages) +
                     " payload=" + FormatBytes(payload_bytes);
  if (migration_messages > 0) {
    text += " migration=" + FormatBytes(migration_bytes) + " (" +
            FormatWithCommas(migration_messages) + " msgs)";
  }
  if (orphan_events > 0) {
    text += " orphan_events=" + FormatWithCommas(orphan_events);
    text += " orphan_messages=" + FormatWithCommas(orphan_messages);
  }
  return text;
}

void CommStats::PublishTo(obs::MetricRegistry* registry) const {
  registry
      ->GetCounter("dismastd_comm_messages_total", {},
                   "Remote messages between simulated workers, sent or booked")
      ->Add(messages);
  registry
      ->GetCounter("dismastd_comm_payload_bytes_total", {},
                   "Serialized payload bytes of the remote messages")
      ->Add(payload_bytes);
  registry
      ->GetCounter("dismastd_comm_migration_messages_total", {},
                   "Messages carrying elastic state migration")
      ->Add(migration_messages);
  registry
      ->GetCounter("dismastd_comm_migration_bytes_total", {},
                   "Serialized bytes of elastic state migration")
      ->Add(migration_bytes);
  registry
      ->GetCounter("dismastd_comm_orphan_events_total", {},
                   "Supersteps committed with undelivered messages pending")
      ->Add(orphan_events);
  registry
      ->GetCounter("dismastd_comm_orphan_messages_total", {},
                   "Undelivered messages found at superstep commits")
      ->Add(orphan_messages);
}

}  // namespace dismastd
