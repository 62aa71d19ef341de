#include "store/artifact_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/hash.hpp"
#include "common/serialize.hpp"

namespace sbst::store {

namespace fs = std::filesystem;

namespace {

// "SBSTORE\0" little-endian; first 8 bytes of every entry.
constexpr std::uint64_t kMagic = 0x0045524f54534253ull;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// The whole file is read up front; entries are small (at most a few MB for
// the largest compiled netlist) and a single read keeps validation simple.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> ArtifactKey::bytes() const {
  common::ByteWriter w;
  w.put_string(kind);
  w.put_u32(version);
  w.put_u32(cut);
  w.put_u8(mode);
  w.put_u64(content);
  w.put_string(tag);
  return w.take();
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string ArtifactStore::entry_path(
    std::string_view kind, const std::vector<std::uint8_t>& key) const {
  const std::uint64_t kh = common::fnv1a_bytes(key.data(), key.size());
  std::string p = dir_;
  p += "/v";
  p += std::to_string(kFormatVersion);
  p += "/";
  p.append(kind.data(), kind.size());
  p += "-";
  p += hex16(kh);
  p += ".bin";
  return p;
}

void ArtifactStore::set_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = bytes;
}

std::uint64_t ArtifactStore::budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::load(
    std::string_view kind, const std::vector<std::uint8_t>& key) {
  const std::string path = entry_path(kind, key);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.loads;

  auto bytes = read_file(path);
  if (!bytes) {
    ++stats_.misses;
    return std::nullopt;
  }

  common::ByteReader r(*bytes);
  const std::uint64_t magic = r.get_u64();
  const std::uint32_t version = r.get_u32();
  const std::string stored_kind = r.get_string();
  const std::uint64_t key_size = r.get_u64();
  const std::uint64_t payload_size = r.get_u64();
  const std::uint64_t key_hash = r.get_u64();
  const std::uint64_t payload_hash = r.get_u64();
  bool valid = r.ok() && magic == kMagic && version == kFormatVersion &&
               stored_kind == kind && key_size == key.size() &&
               key_size + payload_size == r.remaining();
  if (valid) {
    std::vector<std::uint8_t> stored_key(key.size());
    r.get_bytes(stored_key.data(), stored_key.size());
    valid = r.ok() && stored_key == key &&
            key_hash == common::fnv1a_bytes(key.data(), key.size());
  }
  std::vector<std::uint8_t> payload;
  if (valid) {
    payload.resize(static_cast<std::size_t>(payload_size));
    r.get_bytes(payload.data(), payload.size());
    valid = r.at_end() &&
            payload_hash == common::fnv1a_bytes(payload.data(), payload.size());
  }
  if (!valid) {
    ++stats_.invalid;
    return std::nullopt;
  }
  ++stats_.hits;
  // With a budget set, a hit refreshes the entry's mtime so the eviction
  // sweep's oldest-mtime-first order really is least-recently-USED, not
  // least-recently-written.
  if (budget_ > 0) {
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  }
  return payload;
}

bool ArtifactStore::save(std::string_view kind,
                         const std::vector<std::uint8_t>& key,
                         const std::vector<std::uint8_t>& payload) {
  const std::string path = entry_path(kind, key);
  std::lock_guard<std::mutex> lock(mu_);

  common::ByteWriter w;
  w.put_u64(kMagic);
  w.put_u32(kFormatVersion);
  w.put_string(kind);
  w.put_u64(key.size());
  w.put_u64(payload.size());
  w.put_u64(common::fnv1a_bytes(key.data(), key.size()));
  w.put_u64(common::fnv1a_bytes(payload.data(), payload.size()));
  w.put_bytes(key.data(), key.size());
  w.put_bytes(payload.data(), payload.size());

  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);

  // Temp file in the same directory (so rename is atomic), pid-tagged so
  // concurrent processes writing the same entry never collide mid-write.
  const std::string tmp =
      path + ".tmp" + std::to_string(static_cast<long long>(getpid()));
  bool ok = false;
  if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
    ok = std::fwrite(w.bytes().data(), 1, w.size(), f) == w.size();
    ok = (std::fclose(f) == 0) && ok;
  }
  if (ok) {
    fs::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) {
    fs::remove(tmp, ec);
    ++stats_.write_failures;
    return false;
  }
  ++stats_.writes;
  if (budget_ > 0) evict_over_budget_locked(path);
  return true;
}

// LRU-by-mtime eviction sweep, run after a budgeted save (mu_ held).
// Scans the versioned entry directory once: stale temporary files (crashed
// writers' leftovers, older than a grace window so a live writer's tmp is
// never pulled out from under it) are removed unconditionally; entry files
// are removed oldest-mtime-first (name as the deterministic tie-break)
// until the remaining total fits the budget. The just-written entry
// `keep_path` is exempt so a sweep can never undo its own save.
void ArtifactStore::evict_over_budget_locked(const std::string& keep_path) {
  struct EntryFile {
    std::string path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  const fs::path root = fs::path(dir_) / ("v" + std::to_string(kFormatVersion));
  std::error_code ec;
  std::vector<EntryFile> entries;
  std::uint64_t total = 0;
  const auto stale_cutoff =
      fs::file_time_type::clock::now() - std::chrono::minutes(10);
  for (fs::directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec) || fec) continue;
    const std::string path = it->path().string();
    const std::uint64_t size = it->file_size(fec);
    if (fec) continue;
    const fs::file_time_type mtime = it->last_write_time(fec);
    if (fec) continue;
    if (path.find(".tmp") != std::string::npos) {
      if (mtime < stale_cutoff) {
        std::error_code rec;
        if (fs::remove(path, rec) && !rec) ++stats_.stale_tmp_removed;
      }
      continue;
    }
    if (path == keep_path) continue;
    entries.push_back({path, size, mtime});
    total += size;
  }
  std::uint64_t keep_size = 0;
  {
    std::error_code fec;
    const std::uintmax_t s = fs::file_size(keep_path, fec);
    if (!fec) keep_size = static_cast<std::uint64_t>(s);
  }
  total += keep_size;
  if (total <= budget_) return;
  std::sort(entries.begin(), entries.end(),
            [](const EntryFile& a, const EntryFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const EntryFile& e : entries) {
    if (total <= budget_) break;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) {
      total -= e.size;
      ++stats_.evictions;
      stats_.evicted_bytes += e.size;
    }
  }
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string ArtifactStore::default_dir() {
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    return std::string(xdg) + "/sbst";
  }
  if (const char* home = std::getenv("HOME"); home && *home) {
    return std::string(home) + "/.cache/sbst";
  }
  // No $XDG_CACHE_HOME and no $HOME: there is nowhere sensible to persist.
  // Empty means "store disabled" — callers warn once and run without
  // persistence instead of dropping a .sbst-store into whatever the
  // current directory happens to be.
  return std::string();
}

std::string ArtifactStore::resolve_dir(std::string_view spec) {
  if (spec.empty() || spec == "auto") return default_dir();
  return std::string(spec);
}

}  // namespace sbst::store
