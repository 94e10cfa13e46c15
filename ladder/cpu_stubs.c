/* CPU clocks for the ladder benchmark.
 *
 * The stdlib offers process CPU time only through Unix.times, and no
 * per-thread clock at all.  The benchmark needs both: the process clock
 * for a whole operation (every Domain of it), and the calling thread's
 * clock around a loopback server handler, which runs while the client's
 * background refill Domain keeps computing.  Both clocks count only time
 * on a CPU, so time the hypervisor gave to another guest (steal) does
 * not inflate them.
 *
 * Pinning puts every thread of the process, and every thread or child
 * it creates later, on one CPU: the lowest of those it may run on.
 */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <dirent.h>
#include <sched.h>
#include <stdlib.h>
#include <time.h>

static double cpu_seconds(clockid_t clock)
{
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double ladder_process_cpu_unboxed(value unit)
{
  (void)unit;
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

value ladder_process_cpu(value unit)
{
  return caml_copy_double(ladder_process_cpu_unboxed(unit));
}

double ladder_thread_cpu_unboxed(value unit)
{
  (void)unit;
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

value ladder_thread_cpu(value unit)
{
  return caml_copy_double(ladder_thread_cpu_unboxed(unit));
}

/* Pins every thread of this process to its lowest allowed CPU; returns
   that CPU, or -1 if any thread could not be pinned. */
value ladder_pin_first_cpu(value unit)
{
  cpu_set_t set;
  int cpu = -1, ok = 1;
  DIR *dir;
  struct dirent *entry;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int i = 0; i < CPU_SETSIZE && cpu < 0; i++)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  dir = opendir("/proc/self/task");
  if (dir == NULL) return Val_int(sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1);
  while ((entry = readdir(dir)) != NULL) {
    if (entry->d_name[0] == '.') continue;
    if (sched_setaffinity((pid_t)atoi(entry->d_name), sizeof set, &set) != 0) ok = 0;
  }
  closedir(dir);
  return Val_int(ok ? cpu : -1);
}
