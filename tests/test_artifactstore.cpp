/**
 * @file
 * ArtifactStore tests: serialization round-trips are byte-identical
 * for every stage product across the whole app corpus, the stored
 * build's IR digest determines the final module's printed IR, every
 * truncated payload fails to decode with TruncatedData, the store's
 * load/store contract (hits, misses, stats), every corruption mode
 * (truncation, version-stamp mismatch, key mismatch, a hash-valid
 * artifact with a corrupt element count) degrading to a miss — never
 * a wrong or failed answer — two Experiments sharing one directory
 * so the second process executes zero pipeline stages, and two
 * forked processes writing one directory at once.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/experiment.h"
#include "core/stagecache.h"
#include "ir/printer.h"
#include "ir/serialize.h"
#include "support/binio.h"

namespace stos {
namespace {

namespace fs = std::filesystem;
using namespace stos::core;
using namespace stos::tinyos;
using support::BinReader;
using support::BinWriter;

/** A unique store directory under the system temp dir, removed on
 *  scope exit so test runs never observe each other's artifacts. */
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("stos-artifactstore-" + tag + "-" +
                std::to_string(::getpid()));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/** serialize -> deserialize -> serialize must reproduce the bytes. */
template <typename T>
void
expectRoundTripIdentical(const T &product, const std::string &label)
{
    BinWriter w;
    product.serialize(w);
    BinReader r(w.data());
    T copy = T::deserialize(r);
    EXPECT_TRUE(r.atEnd()) << label << ": trailing bytes after decode";
    BinWriter w2;
    copy.serialize(w2);
    EXPECT_EQ(w.data(), w2.data())
        << label << ": re-serialization is not byte-identical";
}

TEST(ArtifactSerialization, RoundTripsByteIdenticallyForEveryApp)
{
    // The store is only sound if decode(encode(p)) encodes back to
    // the same bytes for every product the pipeline can produce, so
    // sweep the whole corpus under the configuration that exercises
    // every stage body (safety checks, inliner, cXprop, backend).
    StageCache cache;
    for (const auto &app : allApps()) {
        PipelineConfig cfg =
            configFor(ConfigId::SafeFlidInlineCxprop, app.platform);
        expectRoundTripIdentical(*cache.frontend(app),
                                 app.name + "/frontend");
        expectRoundTripIdentical(*cache.safety(app, cfg),
                                 app.name + "/safety");
        expectRoundTripIdentical(*cache.opt(app, cfg),
                                 app.name + "/opt");
        expectRoundTripIdentical(*cache.build(app, cfg),
                                 app.name + "/backend");
    }
}

TEST(ArtifactSerialization, IrDigestStandsForTheFinalIr)
{
    // The stored build keeps only a digest of the serialized final
    // module, and the equivalence gates compare that digest where
    // they used to compare printed IR. That is no weaker as long as
    // the serialized bytes determine the printed IR: reading them
    // back must print the very module that was written. The slim
    // build itself must round-trip to an equivalent build. Baseline
    // rides along: only there do the backend's late optimizations
    // still change the module, so only there would a digest of the
    // backend's input instead of its output show.
    for (const auto &app : allApps()) {
        for (ConfigId id : {ConfigId::Baseline,
                            ConfigId::SafeFlidInlineCxpropCfi}) {
            const std::string label = app.name + "/" + configName(id);
            const FullBuild full =
                buildApp(app, configFor(id, app.platform));
            BinWriter w;
            ir::writeModule(w, full.module);
            EXPECT_EQ(support::fnv1a64(w.data()), full.irDigest) << label;
            BinReader r(w.data());
            EXPECT_EQ(ir::moduleToString(ir::readModule(r)),
                      ir::moduleToString(full.module))
                << label;

            const BuildResult &slim = full;
            expectRoundTripIdentical(slim, label + "/slim build");
            BinWriter bw;
            slim.serialize(bw);
            BinReader br(bw.data());
            std::string why;
            EXPECT_TRUE(BuildDriver::resultsEquivalent(
                BuildResult::deserialize(br), slim, &why))
                << label << ": " << why;
        }
    }
}

TEST(ArtifactSerialization, EveryTruncatedPayloadThrowsTruncatedData)
{
    // Every read goes through the bounds-checked BinReader, so a cut
    // anywhere in a payload -- inside a scalar, a string, or before a
    // vector's or map's elements end -- throws TruncatedData and
    // nothing else (no allocation failure, no wrong decode).
    const auto &app = appByName("BlinkTask");
    StageCache cache;
    BinWriter w;
    cache.build(app, configFor(ConfigId::Baseline, app.platform))
        ->serialize(w);
    const std::string_view payload = w.data();

    BinReader whole(payload);
    BuildResult::deserialize(whole);
    EXPECT_TRUE(whole.atEnd());

    // Each prefix costs a decode of its length, so sweep every third
    // one: that keeps the test well under a second, and a stride
    // coprime to the 4- and 8-byte widths still cuts every offset
    // inside a multi-byte field somewhere in the payload.
    for (size_t n = 0; n < payload.size(); n += 3) {
        BinReader r(payload.substr(0, n));
        EXPECT_THROW(BuildResult::deserialize(r), support::TruncatedData)
            << "prefix of " << n << " of " << payload.size() << " bytes";
    }
}

TEST(ArtifactStore, StoresAndLoadsTheExactPayload)
{
    TempDir dir("roundtrip");
    ArtifactStore store(CacheOptions{dir.str()});
    const std::string key = "app|safety|opt|backend";
    const std::string payload{"\x01\x00two\xff three", 13};

    std::string out;
    EXPECT_FALSE(store.load(Stage::Backend, key, &out));
    store.store(Stage::Backend, key, payload);
    ASSERT_TRUE(store.load(Stage::Backend, key, &out));
    EXPECT_EQ(out, payload);

    ArtifactStoreStats s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.corrupt, 0u);
    EXPECT_EQ(s.bytesRead, payload.size());

    // A second store over the same directory sees the artifact — the
    // cross-process contract, minus the process boundary.
    ArtifactStore other(CacheOptions{dir.str()});
    ASSERT_TRUE(other.load(Stage::Backend, key, &out));
    EXPECT_EQ(out, payload);
    // Stages are namespaced: the same key under another stage misses.
    EXPECT_FALSE(other.load(Stage::Opt, key, &out));
}

TEST(ArtifactStore, TruncatedArtifactIsAMissAndIsUnlinked)
{
    TempDir dir("truncated");
    ArtifactStore store(CacheOptions{dir.str()});
    const std::string key = "k";
    store.store(Stage::Opt, key, std::string(256, 'x'));

    fs::path victim = store.pathFor(Stage::Opt, key);
    ASSERT_TRUE(fs::exists(victim));
    fs::resize_file(victim, fs::file_size(victim) / 2);

    std::string out;
    EXPECT_FALSE(store.load(Stage::Opt, key, &out));
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(victim))
        << "a rejected artifact must be unlinked so the rebuild's "
           "write-back replaces it";
}

TEST(ArtifactStore, VersionStampMismatchInvalidates)
{
    TempDir dir("version");
    ArtifactStore store(CacheOptions{dir.str()});
    const std::string key = "k";
    store.store(Stage::Frontend, key, "payload");

    // The u32 format version sits right after the 8-byte magic.
    fs::path victim = store.pathFor(Stage::Frontend, key);
    {
        std::fstream f(victim, std::ios::in | std::ios::out |
                                   std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekg(8);
        char v = 0;
        f.get(v);
        f.seekp(8);
        f.put(static_cast<char>(v + 1));
    }

    std::string out;
    EXPECT_FALSE(store.load(Stage::Frontend, key, &out))
        << "an artifact stamped with another format version must be "
           "a miss";
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(victim));
}

TEST(ArtifactStore, StoredKeyMismatchIsAMiss)
{
    // The file name only carries a 64-bit hash of the key; the full
    // key inside the artifact is the authority. Simulate a hash
    // collision by renaming one key's artifact onto another's path.
    TempDir dir("keymismatch");
    ArtifactStore store(CacheOptions{dir.str()});
    store.store(Stage::Backend, "keyA", "payloadA");
    fs::rename(store.pathFor(Stage::Backend, "keyA"),
               store.pathFor(Stage::Backend, "keyB"));

    std::string out;
    EXPECT_FALSE(store.load(Stage::Backend, "keyB", &out));
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(ArtifactStore, SecondExperimentOverASharedDirectoryRunsNothing)
{
    // The acceptance gate at unit scale: two Experiments (standing in
    // for two processes) bound to one directory — the second executes
    // zero pipeline stages and reproduces the first's cells exactly.
    TempDir dir("shared");
    ExperimentOptions opts;
    opts.simulate = false;
    auto build = [&] {
        Experiment exp(opts);
        exp.addApp(appByName("BlinkTask"));
        exp.addApp(appByName("SenseToRfm"));
        exp.addConfig(ConfigId::Baseline);
        exp.addConfig(ConfigId::SafeFlid);
        ArtifactStore store(CacheOptions{dir.str()});
        StageCache cache(&store);
        return exp.run(cache).builds;
    };

    BuildReport cold = build();
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(cold.diskHits(), 0u);
    EXPECT_GT(cold.cacheBytesWritten, 0u);

    BuildReport warm = build();
    ASSERT_TRUE(warm.allOk());
    for (Stage s : kStages)
        EXPECT_EQ(warm.stages[s].runs, 0u)
            << "a warmed directory must serve the repeat run entirely";
    EXPECT_EQ(warm.stages[Stage::Backend].diskHits, warm.records.size());
    EXPECT_GT(warm.cacheBytesRead, 0u);

    ASSERT_EQ(cold.records.size(), warm.records.size());
    for (size_t i = 0; i < cold.records.size(); ++i) {
        std::string why;
        EXPECT_TRUE(BuildDriver::recordsEquivalent(
            cold.records[i], warm.records[i], &why))
            << why;
    }
}

TEST(ArtifactStore, TwoProcessesColdBuildingOneDirectoryAtOnce)
{
    // Two forked processes cold-build the same matrix into one
    // directory at the same time, so every artifact is written twice
    // concurrently. The store must end up whole: a third run executes
    // nothing and matches a cold serial build, and no temp file is
    // left behind.
    TempDir dir("twoprocs");
    ExperimentOptions opts;
    opts.simulate = false;
    opts.jobs = 1;
    Experiment exp(opts);
    exp.addApp(appByName("BlinkTask"));
    exp.addApp(appByName("SenseToRfm"));
    exp.addConfig(ConfigId::Baseline);
    exp.addConfig(ConfigId::SafeFlid);
    auto runOverStore = [&] {
        ArtifactStore store(CacheOptions{dir.str()});
        StageCache cache(&store);
        return exp.run(cache);
    };

    // Both children block on the pipe until the parent closes it, so
    // their builds overlap.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    pid_t children[2];
    for (pid_t &child : children) {
        child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            ::close(gate[1]);
            char c;
            while (::read(gate[0], &c, 1) > 0) {
            }
            int rc = 1;
            try {
                rc = runOverStore().allOk() ? 0 : 1;
            } catch (...) {
            }
            ::_exit(rc);
        }
    }
    ::close(gate[0]);
    ::close(gate[1]);
    for (pid_t child : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child status " << status;
    }

    ExperimentReport warm = runOverStore();
    ASSERT_TRUE(warm.allOk());
    for (Stage s : kStages)
        EXPECT_EQ(warm.builds.stages[s].runs, 0u) << stageName(s);
    std::string why;
    EXPECT_TRUE(
        Experiment::reportsEquivalent(exp.runSerialReference(), warm, &why))
        << why;
    for (const auto &entry : fs::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        EXPECT_NE(name.rfind(".tmp-", 0), 0u) << name;
    }
}

TEST(ArtifactStore, CorruptedBackendArtifactRebuildsOnceFromSource)
{
    TempDir dir("rebuild");
    const auto &app = appByName("BlinkTask");
    PipelineConfig cfg = configFor(ConfigId::SafeFlid, app.platform);

    ArtifactStore store(CacheOptions{dir.str()});
    std::shared_ptr<const BuildResult> cold;
    {
        StageCache cache(&store);
        cold = cache.build(app, cfg);
    }
    fs::path victim =
        store.pathFor(Stage::Backend, StageCache::buildKey(app, cfg));
    ASSERT_TRUE(fs::exists(victim));
    fs::resize_file(victim, fs::file_size(victim) / 2);

    StageCache cache(&store);
    auto rebuilt = cache.build(app, cfg);
    StageCacheStats s = cache.stats();
    EXPECT_EQ(s.backend.executed, 1u)
        << "the truncated artifact must degrade to a rebuild";
    EXPECT_EQ(s.opt.executed, 1u)
        << "only builds are persisted: the rebuild starts from source";
    EXPECT_EQ(s.frontend.executed, 1u);
    EXPECT_EQ(s.opt.diskHits + s.safety.diskHits + s.frontend.diskHits,
              0u);

    std::string why;
    EXPECT_TRUE(BuildDriver::resultsEquivalent(*cold, *rebuilt, &why))
        << why;
    // The rebuild wrote the artifact back, whole again.
    StageCache third(&store);
    third.build(app, cfg);
    EXPECT_EQ(third.stats().backend.executed, 0u);
    EXPECT_EQ(third.stats().backend.diskHits, 1u);
}

TEST(ArtifactStore, HashValidArtifactWithABadCountIsAMiss)
{
    // A serializer that changes shape without a format-version bump
    // leaves hash-valid artifacts whose element counts are garbage.
    // Decoding one must degrade to a miss and one clean rebuild, not
    // to an allocation failure that fails the cell.
    TempDir dir("badcount");
    const auto &app = appByName("BlinkTask");
    ExperimentOptions opts;
    opts.simulate = false;
    auto build = [&] {
        Experiment exp(opts);
        exp.addApp(app);
        exp.addConfig(ConfigId::Baseline);
        ArtifactStore store(CacheOptions{dir.str()});
        StageCache cache(&store);
        return exp.run(cache).builds;
    };
    BuildReport cold = build();
    ASSERT_TRUE(cold.allOk());

    // The payload opens with the IR digest (u64); the FLID table's
    // u64 element count follows it.
    const std::string key = StageCache::buildKey(
        app, configFor(ConfigId::Baseline, app.platform));
    {
        ArtifactStore store(CacheOptions{dir.str()});
        std::string blob;
        ASSERT_TRUE(store.load(Stage::Backend, key, &blob));
        const size_t countAt = 8;
        ASSERT_LE(countAt + 8, blob.size());
        blob.replace(countAt, 8, 8, '\x7f');
        store.store(Stage::Backend, key, blob);  // re-hashed: valid
    }

    BuildReport warm = build();
    ASSERT_EQ(warm.records.size(), 1u);
    EXPECT_TRUE(warm.allOk()) << warm.records[0].error;
    EXPECT_EQ(warm.stages[Stage::Backend].runs, 1u)
        << "the undecodable artifact must degrade to one rebuild";
    EXPECT_EQ(warm.stages[Stage::Backend].diskHits, 0u);
    EXPECT_EQ(warm.stages[Stage::Opt].runs, 1u);
    std::string why;
    EXPECT_TRUE(BuildDriver::recordsEquivalent(cold.records[0],
                                               warm.records[0], &why))
        << why;
}

} // namespace
} // namespace stos
