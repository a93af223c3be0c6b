// stackprof sampler: a CPU-time stack sampler loaded with LD_PRELOAD.
//
//   gcc -shared -fPIC -O2 -o libstackprof.so scripts/stackprof/sampler.c
//   LD_PRELOAD=$PWD/libstackprof.so STACKPROF_OUT=prof ./prog ...
//   python3 scripts/stackprof/report.py --exe ./prog prof.*
//
// A process-wide ITIMER_PROF timer raises SIGPROF once per interval of
// CPU time the process consumes, on whichever thread is running. The
// handler records the interrupted program counter and the call stack
// above it (glibc backtrace()) into a buffer mapped at load time. At
// exit the library writes `<STACKPROF_OUT>.<pid>`: a header, a copy of
// /proc/self/maps (to place every address in its object), then one line
// per sample. report.py resolves and aggregates the file. Unlike gprof
// it sees time spent inside shared libraries (malloc, memcpy) and
// charges it to the caller.
//
// Settings (environment): STACKPROF_OUT (file prefix, default
// "stackprof"), STACKPROF_INTERVAL_US (default 1000), STACKPROF_MAX_SAMPLES
// (buffer size, default 100000; samples beyond it are counted as
// dropped).
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 64, kRecordWords = kMaxDepth + 1 };

static uintptr_t* g_records;  // kRecordWords per sample: depth, frames
static size_t g_capacity;     // samples that fit in g_records
static atomic_size_t g_next;  // samples claimed (may exceed g_capacity)
static long g_interval_us;
static int g_active;
static __thread int t_in_handler;

static void on_sigprof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  if (t_in_handler) return;
  t_in_handler = 1;
  const int saved_errno = errno;
  const size_t slot = atomic_fetch_add(&g_next, 1);
  if (slot < g_capacity) {
    uintptr_t* rec = g_records + slot * kRecordWords;
    void* frames[kMaxDepth + 8];
    const int n = backtrace(frames, kMaxDepth + 8);
    const ucontext_t* uc = (const ucontext_t*)uctx;
    const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    // The unwinder reports the interrupted frame by its exact pc; the
    // frames before it are this handler and the signal trampoline.
    int first = -1;
    for (int i = 0; i < n; ++i) {
      if ((uintptr_t)frames[i] == pc) {
        first = i;
        break;
      }
    }
    uintptr_t depth = 0;
    rec[1 + depth++] = pc;
    if (first >= 0) {
      for (int i = first + 1; i < n && depth < kMaxDepth; ++i) {
        rec[1 + depth++] = (uintptr_t)frames[i];
      }
    }
    rec[0] = depth;
  }
  errno = saved_errno;
  t_in_handler = 0;
}

static long env_long(const char* name, long fallback) {
  const char* text = getenv(name);
  if (text == NULL || *text == '\0') return fallback;
  char* end = NULL;
  const long value = strtol(text, &end, 10);
  return (*end == '\0' && value > 0) ? value : fallback;
}

__attribute__((constructor)) static void stackprof_start(void) {
  g_interval_us = env_long("STACKPROF_INTERVAL_US", 1000);
  g_capacity = (size_t)env_long("STACKPROF_MAX_SAMPLES", 100000);
  void* buf = mmap(NULL, g_capacity * kRecordWords * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) return;
  g_records = (uintptr_t*)buf;
  // backtrace() loads the unwinder on first use, which is not safe inside
  // a signal handler; do it here.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct itimerval timer;
  timer.it_interval.tv_sec = g_interval_us / 1000000;
  timer.it_interval.tv_usec = g_interval_us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, NULL) != 0) return;
  g_active = 1;
}

static void write_all(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, data, n);
    if (w <= 0) return;
    data += w;
    n -= (size_t)w;
  }
}

__attribute__((destructor)) static void stackprof_stop(void) {
  if (!g_active) return;
  g_active = 0;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  const char* prefix = getenv("STACKPROF_OUT");
  if (prefix == NULL || *prefix == '\0') prefix = "stackprof";
  char path[4096];
  snprintf(path, sizeof(path), "%s.%ld", prefix, (long)getpid());
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;

  const size_t claimed = atomic_load(&g_next);
  const size_t kept = claimed < g_capacity ? claimed : g_capacity;
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[exe_len > 0 ? exe_len : 0] = '\0';
  char line[1024];
  int len = snprintf(line, sizeof(line),
                     "# stackprof 1\n# exe %s\n# interval_us %ld\n"
                     "# samples %zu\n# dropped %zu\n[maps]\n",
                     exe, g_interval_us, kept, claimed - kept);
  write_all(fd, line, (size_t)len);

  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    char chunk[8192];
    ssize_t got;
    while ((got = read(maps, chunk, sizeof(chunk))) > 0) {
      write_all(fd, chunk, (size_t)got);
    }
    close(maps);
  }
  write_all(fd, "[stacks]\n", 9);
  for (size_t s = 0; s < kept; ++s) {
    const uintptr_t* rec = g_records + s * kRecordWords;
    len = 0;
    for (uintptr_t i = 0; i < rec[0]; ++i) {
      len += snprintf(line + len, sizeof(line) - (size_t)len,
                      i == 0 ? "%lx" : " %lx", (unsigned long)rec[1 + i]);
      if ((size_t)len > sizeof(line) - 24) {
        write_all(fd, line, (size_t)len);
        len = 0;
      }
    }
    line[len++] = '\n';
    write_all(fd, line, (size_t)len);
  }
  close(fd);
}
