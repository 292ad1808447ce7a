/* CLOCK_PROCESS_CPUTIME_ID in nanoseconds. Unlike getrusage (which
   Sys.time reads), it includes the running thread's time since its last
   scheduler tick, so it resolves a few microseconds rather than a tick.
   On a guest kernel with steal-time accounting it excludes the time the
   hypervisor ran other tenants. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t perf_cpu_clock_native(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value perf_cpu_clock_bytecode(value unit)
{
  return caml_copy_int64(perf_cpu_clock_native(unit));
}
