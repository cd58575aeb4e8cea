/**
 * @file
 * ArtifactStore implementation. File I/O is plain fstream +
 * std::filesystem; cross-process safety rests entirely on the atomic
 * rename (readers see either the old complete artifact or the new
 * complete artifact, never a partial write) and on the payload hash
 * (anything else degrades to a miss).
 */
#include "core/artifactstore.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "support/binio.h"
#include "support/util.h"

namespace fs = std::filesystem;

namespace stos::core {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'O', 'S', 'A', 'R', 'T', '1'};
constexpr const char *kExt = ".art";

std::string
readWholeFile(const fs::path &p)
{
    // One sized read: opened at the end, the stream's position is the
    // file size.
    std::ifstream in(p, std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
    if (size <= 0 || !in.seekg(0))
        return {};
    std::string data(static_cast<size_t>(size), '\0');
    in.read(data.data(), size);
    // A file cut short after the size was taken reads fewer bytes;
    // the header check then rejects what did arrive.
    data.resize(static_cast<size_t>(in.gcount()));
    return data;
}

} // namespace

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Frontend: return "frontend";
      case Stage::Safety: return "safety";
      case Stage::Opt: return "opt";
      case Stage::Backend: return "backend";
    }
    return "?";
}

ArtifactStore::ArtifactStore(CacheOptions opts) : opts_(std::move(opts))
{
    if (opts_.dir.empty())
        throw FatalError("ArtifactStore requires a directory");
    std::error_code ec;
    fs::create_directories(opts_.dir, ec);
    if (ec && !fs::is_directory(opts_.dir))
        throw FatalError("cannot create artifact store directory " +
                         opts_.dir + ": " + ec.message());
}

std::string
ArtifactStore::pathFor(Stage stage, const std::string &key) const
{
    return (fs::path(opts_.dir) /
            strfmt("%s-%016llx%s", stageName(stage),
                   static_cast<unsigned long long>(support::fnv1a64(key)),
                   kExt))
        .string();
}

bool
ArtifactStore::load(Stage stage, const std::string &key,
                    std::string *payload)
{
    const fs::path path = pathFor(stage, key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        return false;
    }
    std::string data = readWholeFile(path);
    // Parse and verify the header; every failure mode — short file,
    // foreign magic, other store version, hash-collided key, length
    // or payload-hash mismatch — is one rejected artifact.
    bool ok = false;
    size_t payloadSize = 0;
    try {
        support::BinReader r(data);
        char magic[sizeof kMagic];
        for (char &c : magic)
            c = static_cast<char>(r.u8());
        if (std::string_view(magic, sizeof magic) !=
            std::string_view(kMagic, sizeof kMagic))
            throw support::TruncatedData("bad magic");
        if (r.u32() != kStoreFormatVersion)
            throw support::TruncatedData("store format version mismatch");
        if (r.u8() != static_cast<uint8_t>(stage))
            throw support::TruncatedData("stage mismatch");
        if (r.str() != key)
            throw support::TruncatedData("key mismatch (hash collision)");
        uint64_t size = r.u64();
        uint64_t hash = r.u64();
        if (size != r.remaining())
            throw support::TruncatedData("payload length mismatch");
        std::string_view body(data.data() + (data.size() - size),
                              static_cast<size_t>(size));
        if (support::fnv1a64(body) != hash)
            throw support::TruncatedData("payload hash mismatch");
        payload->assign(body.data(), body.size());
        payloadSize = body.size();
        ok = true;
    } catch (const support::TruncatedData &) {
        ok = false;
    }
    if (!ok) {
        // Unlink the rejected artifact so the rebuild's write-back
        // replaces it.
        fs::remove(path, ec);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.corrupt;
        ++stats_.misses;
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.diskHits;
    stats_.bytesRead += payloadSize;
    return true;
}

void
ArtifactStore::store(Stage stage, const std::string &key,
                     std::string_view payload)
{
    support::BinWriter w;
    for (char c : kMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(kStoreFormatVersion);
    w.u8(static_cast<uint8_t>(stage));
    w.str(key);
    w.u64(payload.size());
    w.u64(support::fnv1a64(payload));

    uint64_t tmpId;
    {
        std::lock_guard<std::mutex> lock(mu_);
        tmpId = ++tmpCounter_;
    }
    // The temp name must be unique per writer. The process id is part
    // of it: forked processes hold stores at the same address and
    // count the same ids, and two writers sharing one temp file could
    // publish a partial artifact under the final name.
    const fs::path path = pathFor(stage, key);
    const fs::path tmp =
        fs::path(opts_.dir) /
        strfmt(".tmp-%ld-%llu-%llu", static_cast<long>(::getpid()),
               static_cast<unsigned long long>(
                   support::fnv1a64(key) ^
                   reinterpret_cast<uintptr_t>(this)),
               static_cast<unsigned long long>(tmpId));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return;  // cache writes are best-effort, never fatal
        }
        out.write(w.data().data(),
                  static_cast<std::streamsize>(w.data().size()));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        if (!out) {
            out.close();
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes;
    stats_.bytesWritten += payload.size();
}

ArtifactStoreStats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace stos::core
