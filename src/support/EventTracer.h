//===-- support/EventTracer.h - Chrome trace_event spans ---------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped-span event tracing emitting the Chrome trace_event JSON format,
/// so a whole debugging session -- interpret, align, verify, locate --
/// can be opened in chrome://tracing or Perfetto and read as a timeline.
///
/// Spans are RAII: construct at phase entry, the destructor records one
/// complete ("ph":"X") event with the span's wall-clock duration. The
/// tracer is safe to use from several threads: events append under a
/// mutex (tracing granularity is per re-execution, not per interpreter
/// step, so the lock is nowhere near any hot path), and each native
/// thread is mapped to a stable small tid on first use.
///
/// Like StatsRegistry, absence is the off switch: every entry point
/// accepts a null tracer and degenerates to nothing.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_SUPPORT_EVENTTRACER_H
#define EOE_SUPPORT_EVENTTRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace eoe {
namespace support {

/// Collects trace events in memory; render with json() / writeFile().
class EventTracer {
public:
  /// One recorded event (a complete span or an instant marker).
  struct Event {
    std::string Name;
    std::string Category;
    /// 'X' = complete span, 'i' = instant.
    char Phase = 'X';
    /// Start, nanoseconds since tracer construction.
    uint64_t StartNs = 0;
    uint64_t DurationNs = 0;
    uint32_t Tid = 0;
  };

  /// RAII span. Null-tracer spans cost one branch.
  class Span {
  public:
    Span(EventTracer *T, std::string_view Name,
         std::string_view Category = "eoe")
        : T(T) {
      if (T) {
        this->Name = Name;
        this->Category = Category;
        StartNs = T->nowNs();
      }
    }
    Span(Span &&Other) noexcept { *this = std::move(Other); }
    Span &operator=(Span &&Other) noexcept {
      end();
      T = Other.T;
      Name = std::move(Other.Name);
      Category = std::move(Other.Category);
      StartNs = Other.StartNs;
      Other.T = nullptr;
      return *this;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span() { end(); }

    /// Closes the span early; the destructor becomes a no-op.
    void end() {
      if (!T)
        return;
      T->completeSpan(std::move(Name), std::move(Category), StartNs);
      T = nullptr;
    }

  private:
    EventTracer *T = nullptr;
    std::string Name;
    std::string Category;
    uint64_t StartNs = 0;
  };

  EventTracer() : Epoch(Clock::now()) {}
  EventTracer(const EventTracer &) = delete;
  EventTracer &operator=(const EventTracer &) = delete;

  /// Records an instant marker. Null-tolerant via the static overload.
  void instant(std::string_view Name, std::string_view Category = "eoe");
  static void instant(EventTracer *T, std::string_view Name,
                      std::string_view Category = "eoe") {
    if (T)
      T->instant(Name, Category);
  }

  size_t eventCount() const;

  /// A copy of the recorded events (tests; order is record order).
  std::vector<Event> events() const;

  /// The full Chrome trace JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string json() const;

  /// Writes json() to \p Path; false (with errno set) on I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  friend class Span;
  using Clock = std::chrono::steady_clock;

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }
  void completeSpan(std::string Name, std::string Category, uint64_t StartNs);
  uint32_t tidForCurrentThread(); // callers hold M

  Clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<Event> Events;
  std::map<std::thread::id, uint32_t> Tids;
};

} // namespace support
} // namespace eoe

#endif // EOE_SUPPORT_EVENTTRACER_H
