// Transport primitive tests: pooled payload buffers (refcount, adoption,
// views, recycling) and the MPSC ring mailbox (FIFO per producer across the
// ring/overflow boundary, concurrent stress).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/payload.hpp"

using namespace apv;
using comm::Mailbox;
using comm::Message;
using comm::Payload;

// --- payload buffers --------------------------------------------------------

TEST(Payload, AcquireFillRead) {
  comm::pool::set_enabled(true);
  Payload p = Payload::acquire(100);
  ASSERT_EQ(p.size(), 100u);
  for (std::size_t i = 0; i < p.size(); ++i)
    p.data()[i] = static_cast<std::byte>(i);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_EQ(p.data()[i], static_cast<std::byte>(i));
  EXPECT_TRUE(p.unique());
  p.clear();
  EXPECT_TRUE(p.empty());
}

TEST(Payload, PoolRecyclesChunks) {
  comm::pool::set_enabled(true);
  // Warm: the first acquires may miss; after releases the freelists serve.
  for (int i = 0; i < 8; ++i) Payload::acquire(200).clear();
  comm::pool::reset_stats();
  for (int i = 0; i < 32; ++i) Payload::acquire(200).clear();
  const comm::PoolStats s = comm::pool::stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.bytes_copied, 0u);
}

TEST(Payload, PoolDisabledAlwaysAllocates) {
  comm::pool::set_enabled(false);
  comm::pool::reset_stats();
  for (int i = 0; i < 8; ++i) Payload::acquire(200).clear();
  const comm::PoolStats s = comm::pool::stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 8u);
  comm::pool::set_enabled(true);
}

TEST(Payload, AdoptAndTakeVectorAreZeroCopy) {
  comm::pool::set_enabled(true);
  std::vector<std::byte> bytes(4096, std::byte{0x5a});
  const std::byte* raw = bytes.data();
  comm::pool::reset_stats();
  Payload p = Payload::adopt(std::move(bytes));
  EXPECT_EQ(p.data(), raw);  // wrapped, not copied
  EXPECT_EQ(p.size(), 4096u);
  std::vector<std::byte> out = p.take_vector();
  EXPECT_EQ(out.data(), raw);  // released, not copied
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(comm::pool::stats().bytes_copied, 0u);
}

TEST(Payload, SharedTakeVectorMustCopy) {
  comm::pool::set_enabled(true);
  Payload p = Payload::adopt(std::vector<std::byte>(64, std::byte{7}));
  Payload alias = p;  // second handle: the vector can no longer be released
  comm::pool::reset_stats();
  std::vector<std::byte> out = p.take_vector();
  EXPECT_EQ(out.size(), 64u);
  EXPECT_EQ(out[0], std::byte{7});
  EXPECT_EQ(comm::pool::stats().bytes_copied, 64u);
  EXPECT_EQ(alias.size(), 64u);  // the alias still reads the original bytes
  EXPECT_EQ(alias.data()[63], std::byte{7});
}

TEST(Payload, ViewSharesBackingAndRefcount) {
  Payload parent = Payload::acquire(256);
  for (std::size_t i = 0; i < 256; ++i)
    parent.data()[i] = static_cast<std::byte>(i);
  Payload v = Payload::view(parent, 100, 50);
  EXPECT_EQ(v.size(), 50u);
  EXPECT_EQ(v.data(), parent.data() + 100);
  EXPECT_FALSE(parent.unique());
  parent.clear();  // the view keeps the chunk alive
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(v.data()[i], static_cast<std::byte>(100 + i));
}

TEST(Payload, UnbundleYieldsZeroCopyViews) {
  // Hand-build a two-entry aggregate envelope and split it back apart.
  const char a[] = "hello";
  const char b[] = "aggregated world";
  const std::size_t ea = comm::agg_entry_bytes(sizeof a);
  const std::size_t eb = comm::agg_entry_bytes(sizeof b);
  Message env;
  env.kind = Message::Kind::Aggregate;
  env.src_pe = 3;
  env.dst_pe = 1;
  env.opcode = 2;
  env.payload = Payload::acquire(ea + eb);
  comm::AggSubHeader h{};
  h.src_rank = 7;
  h.dst_rank = 9;
  h.tag = 42;
  h.seq = 11;
  h.bytes = sizeof a;
  std::memcpy(env.payload.data(), &h, sizeof h);
  std::memcpy(env.payload.data() + sizeof h, a, sizeof a);
  h.tag = 43;
  h.seq = 12;
  h.bytes = sizeof b;
  std::memcpy(env.payload.data() + ea, &h, sizeof h);
  std::memcpy(env.payload.data() + ea + sizeof h, b, sizeof b);

  const std::byte* backing = env.payload.data();
  comm::pool::reset_stats();
  std::vector<Message> got;
  comm::unbundle(std::move(env), [&](Message&& m) {
    got.push_back(std::move(m));
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].src_pe, 3);
  EXPECT_EQ(got[0].src_rank, 7);
  EXPECT_EQ(got[0].tag, 42);
  EXPECT_EQ(got[0].seq, 11u);
  EXPECT_EQ(std::memcmp(got[0].payload.data(), a, sizeof a), 0);
  EXPECT_EQ(got[1].tag, 43);
  EXPECT_EQ(std::memcmp(got[1].payload.data(), b, sizeof b), 0);
  // The sub-payloads alias the envelope's buffer: no bytes moved.
  EXPECT_EQ(got[0].payload.data(), backing + sizeof(comm::AggSubHeader));
  EXPECT_EQ(comm::pool::stats().bytes_copied, 0u);
}

// --- mailbox ----------------------------------------------------------------

namespace {

Message make_msg(int src_pe, std::uint64_t seq, std::size_t payload_bytes) {
  Message m;
  m.kind = Message::Kind::UserData;
  m.src_pe = src_pe;
  m.dst_pe = 0;
  m.seq = seq;
  if (payload_bytes > 0) {
    m.payload = Payload::acquire(payload_bytes);
    m.payload.data()[0] = static_cast<std::byte>(seq);
    m.payload.data()[payload_bytes - 1] = static_cast<std::byte>(seq >> 8);
  }
  return m;
}

}  // namespace

TEST(Mailbox, SingleProducerFifo) {
  Mailbox mb;
  for (int i = 0; i < 100; ++i) mb.push(make_msg(0, i, 0));
  EXPECT_EQ(mb.size_approx(), 100u);
  std::vector<Message> out;
  std::uint64_t expect = 0;
  while (mb.pop_batch(out, 7) > 0) {
    for (const Message& m : out) EXPECT_EQ(m.seq, expect++);
    out.clear();
  }
  EXPECT_EQ(expect, 100u);
  EXPECT_TRUE(mb.empty());
  EXPECT_EQ(mb.ring_pushes(), 100u);
  EXPECT_EQ(mb.overflow_pushes(), 0u);
}

TEST(Mailbox, OverflowPreservesFifo) {
  Mailbox::Config cfg;
  cfg.slots = 16;  // tiny ring: most of the burst lands in the overflow
  Mailbox mb(cfg);
  for (int i = 0; i < 100; ++i) mb.push(make_msg(0, i, 0));
  EXPECT_GT(mb.overflow_pushes(), 0u);
  EXPECT_EQ(mb.size_approx(), 100u);
  std::vector<Message> out;
  std::uint64_t expect = 0;
  while (mb.pop_batch(out, 8) > 0) {
    for (const Message& m : out) EXPECT_EQ(m.seq, expect++);
    out.clear();
  }
  EXPECT_EQ(expect, 100u);
  // After the drain the overflow is empty and the ring takes traffic again.
  const std::uint64_t before = mb.ring_pushes();
  mb.push(make_msg(0, 0, 0));
  EXPECT_EQ(mb.ring_pushes(), before + 1);
}

namespace {

// One producer/consumer round. Returns the first FIFO or payload violation
// ("" when clean); never asserts while producers run, so a failure cannot
// leave threads unjoined.
std::string mpsc_round(Mailbox::Mode mode) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  Mailbox::Config cfg;
  cfg.mode = mode;
  cfg.slots = 64;  // small on purpose: exercises the overflow transitions
  Mailbox mb(cfg);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Mixed payload shapes: empty, small pooled, mid, large class.
        const std::size_t sizes[] = {0, 16, 700, 5000};
        mb.push(make_msg(p, static_cast<std::uint64_t>(i),
                         sizes[i % 4]));
      }
    });
  }

  std::string bad;
  const auto fail = [&bad](const std::string& what) {
    if (bad.empty()) bad = what;
  };
  std::map<int, std::uint64_t> next_seq;
  std::size_t total = 0;
  std::vector<Message> out;
  while (total < static_cast<std::size_t>(kProducers) * kPerProducer) {
    out.clear();
    if (mb.pop_batch(out, 64) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (Message& m : out) {
      // FIFO per sender: each producer's sequence arrives in order.
      auto [it, inserted] = next_seq.try_emplace(m.src_pe, 0);
      if (m.seq != it->second)
        fail("producer " + std::to_string(m.src_pe) + " reordered: got " +
             std::to_string(m.seq) + ", expected " +
             std::to_string(it->second));
      it->second = m.seq + 1;
      const std::size_t bytes = m.payload.size();
      if (bytes > 0 &&
          (m.payload.data()[0] != static_cast<std::byte>(m.seq) ||
           m.payload.data()[bytes - 1] !=
               static_cast<std::byte>(m.seq >> 8)))
        fail("payload of seq " + std::to_string(m.seq) + " corrupted");
      ++total;
    }
  }
  for (auto& t : producers) t.join();
  if (!mb.empty()) fail("mailbox not empty after the drain");
  for (const auto& [p, n] : next_seq) {
    if (n != static_cast<std::uint64_t>(kPerProducer))
      fail("producer " + std::to_string(p) + " ended at " + std::to_string(n));
  }
  return bad;
}

// A reorder needs a producer to be preempted inside a few-instruction
// window, so one round rarely shows it: repeat (~30 ms per round).
void run_mpsc_stress(Mailbox::Mode mode) {
  constexpr int kRounds = 50;
  for (int r = 0; r < kRounds; ++r) {
    const std::string bad = mpsc_round(mode);
    ASSERT_TRUE(bad.empty()) << "round " << r << ": " << bad;
  }
}

}  // namespace

TEST(Mailbox, MpscStressRing) { run_mpsc_stress(Mailbox::Mode::Ring); }

TEST(Mailbox, MpscStressMutexBaseline) {
  run_mpsc_stress(Mailbox::Mode::Mutex);
}
