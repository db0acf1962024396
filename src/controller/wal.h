#ifndef FLAY_CONTROLLER_WAL_H
#define FLAY_CONTROLLER_WAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/device_config.h"

namespace flay::controller {

/// One journal record. The journal is JSONL, one JSON object per line:
/// {"seq":4,"type":"commit","updates":["insert Ingress.fwd [...] -> ..."]}.
struct JournalRecord {
  enum class Type { kCommit, kCheckpoint };
  Type type = Type::kCommit;
  uint64_t seq = 0;
  /// kCommit: the transaction's updates as Update wire text, in apply order.
  std::vector<std::string> updates;
  std::string file;  // kCheckpoint: checkpoint file name (relative to dir)
};

/// Append-only write-ahead journal, one record per committed transaction.
/// appendBegin/appendUpdate stage a transaction in memory; appendCommit
/// writes it as one line with one write(2), fsync'd before it returns. The
/// controller commits after the in-memory apply and before any device
/// action, so a transaction is acknowledged, and reaches the device, only
/// once its commit line is durable; a rolled-back batch writes nothing.
/// A record that fails to land is cut off again and throws, so the file
/// keeps exactly the committed records. If the cut fails, or fsync failed
/// (the kernel may have dropped the dirty pages), the journal is failed:
/// every later append throws until the controller is recovered from disk.
class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens for appending after the intact records, cutting off a torn final
  /// line so the next record starts a line of its own.
  void open();
  void close();

  /// Starts a transaction in memory, discarding anything staged and not
  /// committed. `n` is unused: the commit record lists the updates itself.
  void appendBegin(size_t n);
  /// Stages one update of the open transaction; writes nothing.
  void appendUpdate(const runtime::Update& update);
  /// Writes the staged transaction as one commit record.
  uint64_t appendCommit();
  uint64_t appendCheckpoint(const std::string& checkpointFile);

  uint64_t lastSeq() const { return seq_; }
  const std::string& path() const { return path_; }

  /// Loads every record, ignoring a torn tail (an unterminated final line).
  /// A complete line that does not parse is corruption: throws
  /// std::runtime_error naming its line number rather than silently drop
  /// the records after it.
  static std::vector<JournalRecord> load(const std::string& path);

 private:
  uint64_t append(const std::string& body);

  std::string path_;
  int fd_ = -1;
  uint64_t seq_ = 0;
  /// File length: the end of the last intact record.
  uint64_t end_ = 0;
  bool failed_ = false;
  /// The open transaction's updates, rendered as comma-separated JSON
  /// strings.
  std::string staged_;
};

/// Point-in-time snapshot of a DeviceConfig, written atomically (temp file +
/// rename) with an explicit end marker so a torn checkpoint is detectable
/// and recovery falls back to an older one. Entries are stored with their
/// ids and each table's next-id allocator state, so updates journaled after
/// the checkpoint replay against the exact same id sequence they originally
/// saw.
struct Checkpoint {
  /// Sequence number of the last journal record covered by this checkpoint.
  uint64_t seq = 0;

  static void write(const std::string& path,
                    const runtime::DeviceConfig& config, uint64_t seq);
  /// Loads into a fresh config for `checked`; throws std::runtime_error on a
  /// missing/torn/malformed file.
  static runtime::DeviceConfig load(const std::string& path,
                                    const p4::CheckedProgram& checked,
                                    uint64_t* seq);
};

}  // namespace flay::controller

#endif  // FLAY_CONTROLLER_WAL_H
