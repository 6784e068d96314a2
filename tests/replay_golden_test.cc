/**
 * @file
 * Golden-journal regression: a small committed journal must still
 * replay bit-exactly on today's build. This catches accidental
 * determinism breaks (reordered RNG draws, changed event scheduling,
 * span field changes) across commits, not just within one process.
 *
 * Regenerate after an *intentional* behavior change with:
 *   tools/replay_cli record --out tests/data/golden_small.journal \
 *       --scenario partition-heal --duration-s 60 --cycle-ms 3000 \
 *       --checkpoint-every 5
 * (the committed journal was produced with the default CLI spec).
 *
 * Set DYNAMO_SKIP_GOLDEN=1 to skip on platforms whose floating-point
 * contraction settings differ from the recording host.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "replay/journal.h"
#include "replay/replayer.h"

#ifndef DYNAMO_TEST_DATA_DIR
#define DYNAMO_TEST_DATA_DIR "tests/data"
#endif

namespace dynamo {
namespace {

TEST(ReplayGolden, CommittedJournalReplaysBitExactly)
{
    if (std::getenv("DYNAMO_SKIP_GOLDEN") != nullptr) {
        GTEST_SKIP() << "DYNAMO_SKIP_GOLDEN set";
    }
    const std::string path =
        std::string(DYNAMO_TEST_DATA_DIR) + "/golden_small.journal";
    replay::Journal journal;
    try {
        journal = replay::ReadJournalFile(path);
    } catch (const std::exception& e) {
        FAIL() << "cannot load golden journal (" << e.what()
               << "); regenerate with replay_cli (see file header)";
    }
    ASSERT_GT(journal.cycles.size(), 0u);
    ASSERT_GT(journal.checkpoints.size(), 0u);

    replay::Replayer replayer(journal);
    const replay::ReplayResult from_start = replayer.ReplayFromStart();
    EXPECT_TRUE(from_start.ok)
        << "golden journal diverged — if the behavior change was "
           "intentional, regenerate the journal\n"
        << from_start.detail;

    const replay::ReplayResult from_cp =
        replayer.ReplayFromCheckpoint(journal.checkpoints.size() / 2);
    EXPECT_TRUE(from_cp.checkpoint_verified) << from_cp.detail;
    EXPECT_TRUE(from_cp.ok) << from_cp.detail;
}

TEST(ReplayGolden, ReconfigStormJournalReplaysBitExactly)
{
    // The elastic golden: a committed reconfig-storm recording (server
    // growth, a leaf bounce, a cross-SB re-parent, an upper promotion,
    // a subtree decommission) must replay bit-exactly, reconstructing
    // the mutated fleet mid-stream. Regenerate after an intentional
    // behavior change with this one command:
    //   tools/replay_cli record
    //       --out tests/data/golden_reconfig_storm.journal
    //       --spec tests/data/elastic_small.spec
    //       --scenario reconfig-storm --duration-s 180
    //       --cycle-ms 3000 --checkpoint-every 5
    if (std::getenv("DYNAMO_SKIP_GOLDEN") != nullptr) {
        GTEST_SKIP() << "DYNAMO_SKIP_GOLDEN set";
    }
    const std::string path =
        std::string(DYNAMO_TEST_DATA_DIR) + "/golden_reconfig_storm.journal";
    replay::Journal journal;
    try {
        journal = replay::ReadJournalFile(path);
    } catch (const std::exception& e) {
        FAIL() << "cannot load golden journal (" << e.what()
               << "); regenerate with replay_cli (see comment above)";
    }
    ASSERT_GT(journal.cycles.size(), 0u);
    ASSERT_GT(journal.checkpoints.size(), 0u);
    ASSERT_EQ(journal.reconfigs.size(), 5u)
        << "the storm should commit five transactions";

    replay::Replayer replayer(journal);
    const replay::ReplayResult from_start = replayer.ReplayFromStart();
    EXPECT_TRUE(from_start.ok)
        << "reconfig-storm golden diverged — if the behavior change was "
           "intentional, regenerate the journal\n"
        << from_start.detail;

    // Restart from a checkpoint cut after the first reconfiguration:
    // the replayer must rebuild the *mutated* topology to verify it.
    std::size_t idx = journal.checkpoints.size();
    for (std::size_t i = 0; i < journal.checkpoints.size(); ++i) {
        const std::uint64_t cycle = journal.checkpoints[i].cycle;
        if (journal.cycles[cycle].time > journal.reconfigs.front().time) {
            idx = i;
            break;
        }
    }
    ASSERT_LT(idx, journal.checkpoints.size());
    const replay::ReplayResult from_cp = replayer.ReplayFromCheckpoint(idx);
    EXPECT_TRUE(from_cp.checkpoint_verified) << from_cp.detail;
    EXPECT_TRUE(from_cp.ok) << from_cp.detail;
}

}  // namespace
}  // namespace dynamo
