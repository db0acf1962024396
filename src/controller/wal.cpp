#include "controller/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"

namespace flay::controller {

namespace {

/// Journal lines are JSON; update text contains no quotes or control
/// characters today, but escape defensively so the format stays valid if a
/// future renderer changes that.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Minimal cursor-based reader for the records this writer emits. Any
/// mismatch returns false.
struct LineParser {
  std::string_view s;
  size_t pos = 0;

  bool literal(std::string_view lit) {
    if (s.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }
  bool number(uint64_t* out) {
    if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return false;
    uint64_t v = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      v = v * 10 + static_cast<uint64_t>(s[pos] - '0');
      ++pos;
    }
    *out = v;
    return true;
  }
  bool quoted(std::string* out) {
    if (!literal("\"")) return false;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) return false;
        *out += s[pos] == 'n' ? '\n' : s[pos];
      } else {
        *out += s[pos];
      }
      ++pos;
    }
    return literal("\"");
  }
};

bool parseLine(std::string_view line, JournalRecord* rec) {
  LineParser p{line};
  if (!p.literal("{\"seq\":")) return false;
  if (!p.number(&rec->seq)) return false;
  if (!p.literal(",\"type\":\"")) return false;
  std::string type;
  while (p.pos < line.size() && line[p.pos] != '"') type += line[p.pos++];
  if (!p.literal("\"")) return false;
  if (type == "commit") {
    rec->type = JournalRecord::Type::kCommit;
    if (!p.literal(",\"updates\":[")) return false;
    while (!p.literal("]")) {
      if (!rec->updates.empty() && !p.literal(",")) return false;
      if (!p.quoted(&rec->updates.emplace_back())) return false;
    }
  } else if (type == "checkpoint") {
    rec->type = JournalRecord::Type::kCheckpoint;
    if (!p.literal(",\"file\":") || !p.quoted(&rec->file)) return false;
  } else {
    return false;
  }
  return p.literal("}") && p.pos == line.size();
}

/// Parses the journal at `path`; *intactBytes receives the length of its
/// complete lines.
std::vector<JournalRecord> readJournal(const std::string& path,
                                       uint64_t* intactBytes) {
  std::vector<JournalRecord> records;
  *intactBytes = 0;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  // getline reaching end of file means the final line has no newline: an
  // append cut short by a crash, never acknowledged, so it is dropped.
  for (size_t lineNo = 1; std::getline(in, line) && !in.eof(); ++lineNo) {
    JournalRecord rec;
    if (!parseLine(line, &rec)) {
      throw std::runtime_error("journal '" + path + "': line " +
                               std::to_string(lineNo) +
                               " is not a valid record");
    }
    records.push_back(std::move(rec));
    *intactBytes += line.size() + 1;
  }
  return records;
}

}  // namespace

Journal::~Journal() { close(); }

void Journal::open() {
  if (fd_ >= 0) return;
  uint64_t intactBytes = 0;
  std::vector<JournalRecord> records = readJournal(path_, &intactBytes);
  if (!records.empty()) seq_ = records.back().seq;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open journal '" + path_ + "'");
  }
  // Cut off a torn tail: the next record would otherwise complete its line
  // as garbage, and the next recovery would refuse the journal.
  if (::ftruncate(fd_, static_cast<off_t>(intactBytes)) != 0) {
    throw std::runtime_error("cannot truncate journal '" + path_ + "'");
  }
  end_ = intactBytes;
}

void Journal::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

uint64_t Journal::append(const std::string& body) {
  if (fd_ < 0) {
    throw std::runtime_error("journal '" + path_ + "' is not open");
  }
  if (failed_) {
    throw std::runtime_error("journal '" + path_ +
                             "' failed: recover the controller from disk");
  }
  uint64_t seq = seq_ + 1;
  std::string line = "{\"seq\":" + std::to_string(seq) + "," + body + "}\n";
  // A record is only "journaled" once it survives SIGKILL of this process
  // (the write reaches the kernel) and power loss (fsync).
  ssize_t written = ::write(fd_, line.data(), line.size());
  bool whole = written == static_cast<ssize_t>(line.size());
  if (whole && ::fsync(fd_) == 0) {
    seq_ = seq;
    end_ += line.size();
    obs::Registry::global().counter("controller.journal_records").add(1);
    return seq;
  }
  // The descriptor appends, so the next record lands where this one began.
  failed_ = ::ftruncate(fd_, static_cast<off_t>(end_)) != 0 || whole;
  throw std::runtime_error(
      std::string(whole ? "journal fsync failed: " : "journal write failed: ") +
      path_);
}

void Journal::appendBegin(size_t /*n*/) { staged_.clear(); }

void Journal::appendUpdate(const runtime::Update& update) {
  if (!staged_.empty()) staged_ += ',';
  staged_ += '"';
  staged_ += jsonEscape(update.toString());
  staged_ += '"';
}

uint64_t Journal::appendCommit() {
  uint64_t seq = append("\"type\":\"commit\",\"updates\":[" + staged_ + "]");
  staged_.clear();
  return seq;
}

uint64_t Journal::appendCheckpoint(const std::string& checkpointFile) {
  return append("\"type\":\"checkpoint\",\"file\":\"" +
                jsonEscape(checkpointFile) + "\"");
}

std::vector<JournalRecord> Journal::load(const std::string& path) {
  uint64_t intactBytes = 0;
  return readJournal(path, &intactBytes);
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

void Checkpoint::write(const std::string& path,
                       const runtime::DeviceConfig& config, uint64_t seq) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write checkpoint '" + tmp + "'");
    out << "flay-checkpoint v1\n";
    out << "seq " << seq << "\n";
    for (const auto& [name, table] : config.tables()) {
      for (const runtime::TableEntry& e : table.entries()) {
        runtime::Update u;
        u.kind = runtime::Update::Kind::kInsert;
        u.target = name;
        u.entry = e;
        out << "entry " << e.id << " " << u.toString() << "\n";
      }
      runtime::Update d;
      d.kind = runtime::Update::Kind::kSetDefaultAction;
      d.target = name;
      d.actionName = table.defaultActionName();
      d.actionArgs = table.defaultActionArgs();
      out << "u " << d.toString() << "\n";
      // After the entries so restoreEntry's bumping is then pinned exactly.
      out << "nextid " << name << " " << table.nextId() << "\n";
    }
    for (const auto& [name, vs] : config.valueSets()) {
      for (const auto& [value, mask] : vs.members()) {
        runtime::Update u;
        u.kind = runtime::Update::Kind::kValueSetInsert;
        u.target = name;
        u.value = value;
        u.mask = mask;
        out << "u " << u.toString() << "\n";
      }
    }
    for (const auto& [name, prof] : config.actionProfiles()) {
      for (const auto& m : prof.members()) {
        runtime::Update u;
        u.kind = runtime::Update::Kind::kProfileAdd;
        u.target = name;
        u.member = m;
        out << "u " << u.toString() << "\n";
      }
    }
    out << "end\n";
    out.flush();
    if (!out) throw std::runtime_error("checkpoint write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint rename failed: " + path);
  }
  obs::Registry::global().counter("controller.checkpoints").add(1);
}

runtime::DeviceConfig Checkpoint::load(const std::string& path,
                                       const p4::CheckedProgram& checked,
                                       uint64_t* seq) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read checkpoint '" + path + "'");
  std::string line;
  if (!std::getline(in, line) || line != "flay-checkpoint v1") {
    throw std::runtime_error("bad checkpoint header in '" + path + "'");
  }
  if (!std::getline(in, line) || line.substr(0, 4) != "seq ") {
    throw std::runtime_error("missing seq in checkpoint '" + path + "'");
  }
  *seq = std::stoull(line.substr(4));
  runtime::DeviceConfig config(checked);
  bool sawEnd = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      sawEnd = true;
      break;
    }
    if (line.substr(0, 6) == "entry ") {
      size_t sp = line.find(' ', 6);
      if (sp == std::string::npos) {
        throw std::runtime_error("bad entry line in checkpoint '" + path + "'");
      }
      uint64_t id = std::stoull(line.substr(6, sp - 6));
      runtime::Update u =
          runtime::Update::fromString(checked, line.substr(sp + 1));
      u.entry.id = id;
      config.table(u.target).restoreEntry(u.entry);
    } else if (line.substr(0, 2) == "u ") {
      config.apply(runtime::Update::fromString(checked, line.substr(2)));
    } else if (line.substr(0, 7) == "nextid ") {
      size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        throw std::runtime_error("bad nextid line in checkpoint '" + path + "'");
      }
      config.table(line.substr(7, sp - 7))
          .setNextId(std::stoull(line.substr(sp + 1)));
    } else {
      throw std::runtime_error("unknown checkpoint line: " + line);
    }
  }
  if (!sawEnd) {
    throw std::runtime_error("torn checkpoint (no end marker): '" + path + "'");
  }
  return config;
}

}  // namespace flay::controller
