/* Flat SIGPROF sampler, loaded with LD_PRELOAD; does nothing unless PROF_OUT
 * is set.  Samples the interrupted instruction pointer on CPU time
 * (ITIMER_PROF), so it sees the main thread's work and costs the profiled
 * program one signal a millisecond at most.  x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long count;
static const char *out_path;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    unsigned long slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        samples[slot] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

static void write_out(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(out_path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    unsigned long n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    if (!(out_path = getenv("PROF_OUT"))) return;
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}}; /* asks for 1 kHz */
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(write_out);
}
