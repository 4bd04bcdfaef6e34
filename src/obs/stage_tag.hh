/**
 * @file
 * Thread-local stage tags: a zero-allocation label naming the pipeline
 * or archive stage the current thread is working for.  The sampled
 * allocation profiler (obs::allocProfiler, obs/profiler.hh) attributes
 * bytes and allocation counts to the active tag, and ThreadPool
 * propagates the submitter's tag into its workers so shard decodes stay
 * attributed to the stage that scheduled them.
 *
 * Tags must be string literals (or otherwise immortal): the thread
 * local stores the pointer, never a copy, so reading it is safe from
 * any context — including inside operator new.
 */

#pragma once

namespace dnastore::obs
{

/** Tag of the stage the calling thread is in ("" when untagged). */
const char *currentStageTag();

/**
 * Set the calling thread's tag directly, returning the previous tag.
 * Prefer StageTagScope; this exists for thread-pool workers that
 * adopt a submitter's tag across a task boundary.  @p tag may be
 * nullptr to untag.
 */
const char *exchangeStageTag(const char *tag);

/** RAII tag scope: sets the tag, restores the previous one on exit. */
class StageTagScope
{
  public:
    /** @param tag string literal, e.g. "pipeline.clustering". */
    explicit StageTagScope(const char *tag)
        : prev_(exchangeStageTag(tag))
    {
    }

    StageTagScope(const StageTagScope &) = delete;
    StageTagScope &operator=(const StageTagScope &) = delete;

    ~StageTagScope() { exchangeStageTag(prev_); }

  private:
    const char *prev_;
};

} // namespace dnastore::obs
