/**
 * @file
 * Test helper: a RowBuilder that keeps a copy of every cell's analyzed
 * runs, so driver tests can inspect traces and stream statistics that
 * otherwise never leave runCells().
 */

#ifndef TSTREAM_TESTS_RUN_CAPTURE_HH
#define TSTREAM_TESTS_RUN_CAPTURE_HH

#include <map>
#include <mutex>
#include <vector>

#include "sim/driver.hh"

namespace tstream
{

/** Captured runs keyed by grid index; the builder adds no rows. */
class RunCapture
{
  public:
    /** A builder recording into this capture (which must outlive the
     *  runCells() call). Safe on concurrent pool threads. */
    RowBuilder
    builder()
    {
        return [this](const Cell &cell,
                      const std::vector<RunOutput> &runs) {
            std::lock_guard<std::mutex> lk(mu_);
            runs_[cell.index] = runs;
            ++calls_[cell.index];
            return std::vector<BenchRow>{};
        };
    }

    /** The runs captured for grid index @p index (empty if none). */
    const std::vector<RunOutput> &
    runs(std::size_t index)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return runs_[index];
    }

    /** How often the builder ran for grid index @p index. */
    unsigned
    calls(std::size_t index)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return calls_[index];
    }

  private:
    std::mutex mu_;
    std::map<std::size_t, std::vector<RunOutput>> runs_;
    std::map<std::size_t, unsigned> calls_;
};

} // namespace tstream

#endif // TSTREAM_TESTS_RUN_CAPTURE_HH
