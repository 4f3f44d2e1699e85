/* The work-stealing tick loop, compiled: one resumable kernel.
 *
 * A line-for-line transcription of the native-scope semantics of
 * repro/sim/flat_engine.py::_run_flat (phase A completion cascades,
 * phase B admission / burn / live-attempt branches, the three
 * fast-forwards, sub-tick execution when steals_per_tick > 1): same
 * completions, same stats counters, same RNG draw cadence
 * (tests/sim/test_batch_engine.py, tests/sim/test_stream_engine.py).
 * Victim draws come from a 4096-slot block refilled by calling back
 * into Python (refill_fn), so the PCG64 stream -- and its post-state --
 * is drawn by the same numpy calls as the Python engines.
 *
 * The loop's scalars live in a KState that repro_kernel_run loads into
 * locals on entry and stores back on every return, so a caller can
 * change the Arena between calls.  repro.sim.batch_engine runs each
 * replicate of a materialized arena in one call (exhausted = 1, no
 * logs, no checkpoints: the only causes are RC_DONE and RC_MAX_TICKS);
 * repro.sim.stream_engine drives a sliding window over a lazy stream
 * and acts on each return cause:
 *
 *   RC_NEED_SEGMENT  the release block drained the window while more
 *                    jobs will arrive: append a segment; the resumed
 *                    call re-enters the release block.
 *   RC_CHECKPOINT    post-release, completed >= ckpt_at: every due
 *                    arrival is released (next_at > t), so the resumed
 *                    call skips the release block by construction.
 *   RC_LOG_FULL      no room to log one more iteration: drain the logs.
 *   RC_MAX_TICKS     the feasibility bound was exceeded (an error).
 *
 * Flows are c - arrival with c = (end_tick + 1) / speed, summed in
 * completion order; build with -ffp-contract=off so no FMA contraction
 * perturbs the last bit.
 */

#include <stddef.h>
#include <stdint.h>

#define BLOCK 4096
#define IDLE_AT (((int64_t)1) << 62)

/* Return causes (mirrored in repro.sim._cext). */
#define RC_DONE 0
#define RC_MAX_TICKS 1
#define RC_NEED_SEGMENT 2
#define RC_CHECKPOINT 3
#define RC_LOG_FULL 4

typedef void (*refill_fn)(int64_t rep);

/* Tables and mutable arrays of one run (or stream window), in the
 * field order of repro.sim._cext.Arena.  Job-indexed tables: jro (root
 * offsets, wn + 1 entries), arr_ticks, arrivals. */
typedef struct {
    const int64_t *works, *eo, *et, *chain, *job_of, *jro, *roots;
    const int64_t *arr_ticks;
    const double *arrivals;   /* arrival times; NULL: write completions */
    int64_t *preds, *unfin;
    double *completions;
    int64_t *cur, *fin, *fails, *idles;
    int64_t *dq_head, *dq_tail, *dq_next, *dq_prev, *rdy;
    int64_t *raw;             /* the current 4096-draw victim block */
    double *flow_log;         /* flows in completion order, or NULL */
    int64_t *busy_log;        /* (tick, n_busy) pairs, or NULL */
    int64_t flow_cap, busy_cap;
    int64_t n;                /* jobs in the whole run */
    int64_t wn;               /* jobs currently in the window */
    int64_t exhausted;        /* no job beyond the window will arrive */
    int64_t m, k, sigma, max_ticks;
    int64_t ckpt_at;          /* RC_CHECKPOINT once completed >= this */
    int64_t fast_forward;
    double speed;
} Arena;

/* Every loop scalar, in the field order of repro.sim._cext.KState. */
typedef struct {
    int64_t t;
    int64_t next_arr;   /* window index of the next unreleased job */
    int64_t next_at;    /* its arrival tick (IDLE_AT: none ever) */
    int64_t q_head;     /* FIFO queue == window jobs [q_head, next_arr) */
    int64_t p;          /* next unconsumed draw in the current block */
    int64_t n_busy, completed;
    int64_t nf;         /* min over busy workers of fin[i] */
    int64_t ne_count;   /* workers with a non-empty deque */
    int64_t steal_attempts, failed_steals, idle_steps;
    int64_t admission_wait_ticks, ff_skipped_ticks, max_queue_depth;
    int64_t job_base;   /* global id of window job 0 */
    int64_t argmax_job; /* -1: none yet */
    int64_t flow_n;     /* entries in flow_log */
    int64_t busy_n;     /* pairs in busy_log */
    int64_t busy_last;  /* n_busy of the last busy_log entry (-1: none) */
    int64_t t_top;      /* tick of the last loop top that logged */
    double max_flow, argmax_completion, flow_sum, last_completion;
} KState;

/* deques[i].append((node, ready)) */
static void dq_push(const Arena *a, KState *s, int64_t i, int64_t node,
                    int64_t ready)
{
    int64_t tail = a->dq_tail[i];
    a->rdy[node] = ready;
    a->dq_next[node] = -1;
    a->dq_prev[node] = tail;
    if (tail < 0) {
        a->dq_head[i] = node;
        s->ne_count++;
    } else {
        a->dq_next[tail] = node;
    }
    a->dq_tail[i] = node;
}

/* deques[i].pop() -- LIFO, own-deque continuation */
static int64_t dq_pop_back(const Arena *a, KState *s, int64_t i)
{
    int64_t node = a->dq_tail[i];
    int64_t prev = a->dq_prev[node];
    a->dq_tail[i] = prev;
    if (prev < 0) {
        a->dq_head[i] = -1;
        s->ne_count--;
    } else {
        a->dq_next[prev] = -1;
    }
    return node;
}

/* deques[victim].popleft() -- FIFO, steal */
static int64_t dq_pop_front(const Arena *a, KState *s, int64_t i)
{
    int64_t node = a->dq_head[i];
    int64_t next = a->dq_next[node];
    a->dq_head[i] = next;
    if (next < 0) {
        a->dq_tail[i] = -1;
        s->ne_count--;
    } else {
        a->dq_prev[next] = -1;
    }
    return node;
}

/* Job j completes at the end of end_tick: record its completion time
 * (materialized runs) or fold its flow into the exact online
 * accumulators and the flow log (streams). */
static void finish_job(const Arena *a, KState *s, int64_t j, int64_t end_tick)
{
    double c = (double)(end_tick + 1) / a->speed;
    if (a->arrivals) {
        double flow = c - a->arrivals[j];
        if (flow < 0.0)
            flow = 0.0;
        s->flow_sum += flow;
        if (flow > s->max_flow) {
            s->max_flow = flow;
            s->argmax_job = s->job_base + j;
            s->argmax_completion = c;
        }
        if (c > s->last_completion)
            s->last_completion = c;
        if (a->flow_log)
            a->flow_log[s->flow_n++] = flow;
    } else {
        a->completions[j] = c;
    }
    s->completed++;
}

/* Worker i runs node g from the tick after end_tick: it finishes at
 * the end of end_tick + works[g].  Lowers nf when that is earlier. */
static void start_node(const Arena *a, KState *s, int64_t i, int64_t g,
                       int64_t end_tick)
{
    int64_t f = end_tick + a->works[g];
    a->cur[i] = g;
    a->fin[i] = f;
    if (f < s->nf)
        s->nf = f;
}

/* _complete(i, end_tick): finish worker i's current node at the end of
 * end_tick.  Lowers nf when it assigns an earlier finish (phase A
 * recomputes nf wholesale afterwards, so reusing this in phase A is
 * exact). */
static void complete_node(const Arena *a, KState *s, int64_t i,
                          int64_t end_tick)
{
    int64_t g = a->cur[i];
    int64_t j = a->job_of[g];
    int64_t u = a->unfin[j] - 1;
    int64_t cn, lo, hi;
    a->unfin[j] = u;
    cn = a->chain[g];
    if (cn >= 0) {
        start_node(a, s, i, cn, end_tick);
        return;
    }
    lo = a->eo[g];
    hi = a->eo[g + 1];
    if (u == 0)
        finish_job(a, s, j, end_tick);
    if (lo != hi) {
        if (hi - lo == 1) {
            int64_t s2 = a->et[lo];
            int64_t pc = a->preds[s2] - 1;
            a->preds[s2] = pc;
            if (pc == 0) {
                start_node(a, s, i, s2, end_tick);
                return;
            }
        } else {
            int64_t first = -1;
            int64_t x;
            for (x = lo; x < hi; x++) {
                int64_t s2 = a->et[x];
                int64_t pc = a->preds[s2] - 1;
                a->preds[s2] = pc;
                if (pc == 0) {
                    if (first < 0)
                        first = s2;
                    else
                        /* extras: enabled siblings, ready next tick */
                        dq_push(a, s, i, s2, end_tick + 1);
                }
            }
            if (first >= 0) {
                start_node(a, s, i, first, end_tick);
                return;
            }
        }
    }
    if (a->dq_head[i] >= 0) {
        start_node(a, s, i, dq_pop_back(a, s, i), end_tick);
    } else {
        a->cur[i] = -1;
        a->fin[i] = IDLE_AT;
        s->n_busy--;
    }
}

int64_t repro_kernel_run(const Arena *a, KState *ks, refill_fn refill,
                         int64_t rep)
{
    /* The scalars the loop touches every iteration live in locals;
     * complete_node's share stays in the local copy s. */
    KState s = *ks;
    const int64_t *works = a->works, *jro = a->jro, *roots = a->roots;
    const int64_t *arr_ticks = a->arr_ticks;
    int64_t *cur = a->cur, *fin = a->fin, *fails = a->fails;
    int64_t *idles = a->idles, *dq_head = a->dq_head, *rdy = a->rdy;
    int64_t *raw = a->raw, *busy_log = a->busy_log;
    const int64_t n = a->n, wn = a->wn, m = a->m, k = a->k;
    const int64_t sigma = a->sigma, max_ticks = a->max_ticks;
    const int64_t ff = a->fast_forward;
    const int64_t flow_room = a->flow_log ? a->flow_cap - m : INT64_MAX;
    int64_t t = s.t, next_arr = s.next_arr, next_at = s.next_at;
    int64_t q_head = s.q_head, p = s.p;
    int64_t st_att = s.steal_attempts, st_fail = s.failed_steals;
    int64_t st_idle = s.idle_steps, st_admwait = s.admission_wait_ticks;
    int64_t st_ff = s.ff_skipped_ticks, st_maxq = s.max_queue_depth;
    int64_t rc, i;

    for (;;) {
        if (s.completed >= n) {
            rc = RC_DONE;
            break;
        }
        /* An iteration logs at most m flows and one busy pair. */
        if (s.flow_n > flow_room || (busy_log && s.busy_n >= a->busy_cap)) {
            rc = RC_LOG_FULL;
            break;
        }

        /* ---- release arrivals due at or before the current tick ---- */
        if (next_at <= t) {
            int64_t ql;
            while (next_arr < wn && arr_ticks[next_arr] <= t)
                next_arr++;
            if (next_arr < wn) {
                next_at = arr_ticks[next_arr];
            } else if (!a->exhausted) {
                rc = RC_NEED_SEGMENT;
                break;
            } else {
                next_at = IDLE_AT; /* no further arrivals, ever */
            }
            ql = next_arr - q_head;
            if (ql > st_maxq)
                st_maxq = ql;
            if (s.completed >= a->ckpt_at) {
                rc = RC_CHECKPOINT;
                break;
            }
        }

        if (t >= max_ticks) {
            rc = RC_MAX_TICKS;
            break;
        }

        /* ---- utilization: the busy count as a step function ---- */
        if (busy_log) {
            s.t_top = t;
            if (s.n_busy != s.busy_last) {
                busy_log[2 * s.busy_n] = t;
                busy_log[2 * s.busy_n + 1] = s.n_busy;
                s.busy_n++;
                s.busy_last = s.n_busy;
            }
        }

        if (ff) {
            /* ---- fast-forward: whole system empty ---- */
            if (s.n_busy == 0 && q_head == next_arr) {
                int64_t gap = next_at - t;
                for (i = 0; i < m; i++) {
                    int64_t f = fails[i] + gap * sigma;
                    fails[i] = (f < k) ? f : k;
                }
                st_idle += gap * m;
                st_ff += gap;
                t += gap;
                continue;
            }

            /* ---- fast-forward: every worker busy ---- */
            if (s.n_busy == m) {
                int64_t blind = s.nf - t;
                if (blind > 0) {
                    st_ff += blind;
                    t += blind;
                    continue;
                }
                /* blind == 0: the completion tick; fall through. */
            } else if (s.ne_count == 0 && s.n_busy > 0
                       && q_head == next_arr) {
                /* ---- fast-forward: nothing stealable, nothing admissible */
                int64_t delta = s.nf - t + 1;
                int64_t blind;
                if (next_at < IDLE_AT && next_at - t < delta)
                    delta = next_at - t;
                blind = delta - 1;
                if (blind >= 1) {
                    int64_t n_idle = m - s.n_busy;
                    for (i = 0; i < m; i++) {
                        if (cur[i] < 0) {
                            int64_t f = fails[i] + blind * sigma;
                            fails[i] = (f < k) ? f : k;
                        }
                    }
                    st_att += blind * n_idle * sigma;
                    st_fail += blind * n_idle * sigma;
                    st_ff += blind;
                    t += blind;
                    continue;
                }
                /* delta == 1: fall through to the general tick. */
            }
        }

        /* ---- general tick ------------------------------------------ */
        /* Snapshot workers idle at the start of the tick, BEFORE phase
         * A: workers idled by a completion cascade must not act until
         * the next tick (the reference's idle_at_start). */
        {
            int64_t n_snap = 0;
            int64_t s_i;

            for (i = 0; i < m; i++)
                if (cur[i] < 0)
                    idles[n_snap++] = i;

            /* Phase A: completion cascades, only on ticks where some
             * busy worker finishes.  complete_node may lower nf
             * mid-phase; the wholesale recompute below makes the final
             * nf exactly min(fin), matching the Python kernel. */
            if (s.nf == t) {
                int64_t nfi = IDLE_AT;
                for (i = 0; i < m; i++)
                    if (fin[i] == t)
                        complete_node(a, &s, i, t);
                for (i = 0; i < m; i++)
                    if (fin[i] < nfi)
                        nfi = fin[i];
                s.nf = nfi;
            }

            /* Phase B: idle workers acquire work. */
            for (s_i = 0; s_i < n_snap; s_i++) {
                int64_t budget = sigma;
                i = idles[s_i];
                while (budget > 0) {
                    int64_t fi = fails[i];
                    if (fi >= k && q_head != next_arr) {
                        /* Admit the head-of-line job. */
                        int64_t jb = q_head++;
                        int64_t ro = jro[jb];
                        int64_t rhi = jro[jb + 1];
                        int64_t r0 = roots[ro];
                        cur[i] = r0;
                        fails[i] = 0;
                        s.n_busy++;
                        st_admwait += t - arr_ticks[jb];
                        if (rhi - ro > 1) {
                            int64_t x;
                            for (x = ro + 1; x < rhi; x++)
                                dq_push(a, &s, i, roots[x], t);
                        }
                        if (sigma > 1) {
                            /* Sub-tick admission: one unit this tick. */
                            if (works[r0] == 1)
                                complete_node(a, &s, i, t);
                            else
                                start_node(a, &s, i, r0, t - 1);
                        } else {
                            start_node(a, &s, i, r0, t);
                        }
                        break; /* admission consumes the rest of the tick */
                    }
                    if (s.ne_count == 0) {
                        /* Nothing stealable: burn just enough to unlock
                         * admission when the queue is non-empty, else
                         * the whole budget -- no draws. */
                        int64_t burned, f2;
                        if (q_head != next_arr && k - fi <= budget)
                            burned = k - fi;
                        else
                            burned = budget;
                        f2 = fi + burned;
                        fails[i] = (f2 < k) ? f2 : k;
                        st_att += burned;
                        st_fail += burned;
                        budget -= burned;
                        if (budget > 0)
                            continue; /* unlocked admission */
                        break;
                    }
                    /* Live steal attempts against the draw block. */
                    {
                        int64_t allowed = budget;
                        int64_t got = -1;
                        int64_t v, victim, g2, g2rdy;
                        if (q_head != next_arr) {
                            int64_t d = k - fi;
                            if (d < allowed)
                                allowed = d;
                        }
                        for (;;) {
                            int64_t stop, jdx, n_failed;
                            if (p == BLOCK) {
                                /* Same lazy refill cadence as
                                 * UniformVictim: Python draws the next
                                 * 4096 values into the block. */
                                refill(rep);
                                p = 0;
                            }
                            stop = p + allowed;
                            if (stop > BLOCK)
                                stop = BLOCK;
                            got = -1;
                            for (jdx = p; jdx < stop; jdx++) {
                                v = raw[jdx];
                                if (v >= i)
                                    v++;
                                if (dq_head[v] >= 0) {
                                    got = jdx;
                                    break;
                                }
                            }
                            if (got >= 0) {
                                n_failed = got - p;
                                fails[i] += n_failed;
                                st_att += n_failed + 1;
                                st_fail += n_failed;
                                budget -= n_failed + 1;
                                p = got + 1;
                                break;
                            }
                            n_failed = stop - p;
                            fails[i] += n_failed;
                            st_att += n_failed;
                            st_fail += n_failed;
                            budget -= n_failed;
                            allowed -= n_failed;
                            p = stop;
                            if (allowed == 0)
                                break;
                        }
                        if (got < 0)
                            continue; /* budget spent or admission unlocked */
                        v = raw[got];
                        victim = (v >= i) ? v + 1 : v;
                        g2 = dq_pop_front(a, &s, victim);
                        g2rdy = rdy[g2];
                        cur[i] = g2;
                        fails[i] = 0;
                        s.n_busy++;
                        /* Same-tick execution only if the stolen node
                         * was ready at the start of this tick. */
                        if (sigma > 1 && g2rdy <= t) {
                            if (works[g2] == 1)
                                complete_node(a, &s, i, t);
                            else
                                start_node(a, &s, i, g2, t - 1);
                        } else {
                            start_node(a, &s, i, g2, t);
                        }
                        break; /* the steal consumes the rest of the tick */
                    }
                }
            }
        }
        t += 1;
    }

    s.t = t; s.next_arr = next_arr; s.next_at = next_at;
    s.q_head = q_head; s.p = p;
    s.steal_attempts = st_att; s.failed_steals = st_fail;
    s.idle_steps = st_idle; s.admission_wait_ticks = st_admwait;
    s.ff_skipped_ticks = st_ff; s.max_queue_depth = st_maxq;
    *ks = s;
    return rc;
}

/* Layout probe: lets the loader refuse a struct mirror that drifted. */
void repro_kernel_abi(int64_t *out)
{
    out[0] = (int64_t)sizeof(Arena);
    out[1] = (int64_t)sizeof(KState);
    out[2] = (int64_t)offsetof(Arena, speed);
    out[3] = (int64_t)offsetof(KState, last_completion);
}
