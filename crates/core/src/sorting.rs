//! Sorting algorithms for the Sorted-Distances candidate ordering.
//!
//! Footnote 2 of the paper: *"We have experimented with six sorting methods
//! (Bubble-, Selection-, Insertion-, Heap-, Quick-, MergeSort) and chosen
//! MergeSort because it obtained the best performance in terms of both I/O
//! and CPU cost."* The I/O cost of STD is affected only through tie order —
//! stable sorts preserve generation order among ties, unstable ones don't.
//! This module implements the spread so the ablation is reproducible; the
//! default is MergeSort like the paper.

use std::cmp::Ordering;

/// Selectable sorting algorithm for STD's candidate ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortAlgorithm {
    /// Bottom-up merge sort (stable) — the paper's choice.
    #[default]
    Merge,
    /// Quicksort (Hoare partition, unstable).
    Quick,
    /// Heapsort (unstable).
    Heap,
    /// Insertion sort (stable; quadratic, fine for one node's pair list).
    Insertion,
    /// Selection sort (unstable; quadratic).
    Selection,
    /// Bubble sort (stable; quadratic).
    Bubble,
}

impl SortAlgorithm {
    /// All algorithms of the paper's footnote, for the ablation bench.
    pub const ALL: [SortAlgorithm; 6] = [
        SortAlgorithm::Merge,
        SortAlgorithm::Quick,
        SortAlgorithm::Heap,
        SortAlgorithm::Insertion,
        SortAlgorithm::Selection,
        SortAlgorithm::Bubble,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SortAlgorithm::Merge => "merge",
            SortAlgorithm::Quick => "quick",
            SortAlgorithm::Heap => "heap",
            SortAlgorithm::Insertion => "insertion",
            SortAlgorithm::Selection => "selection",
            SortAlgorithm::Bubble => "bubble",
        }
    }

    /// `true` for algorithms that preserve the relative order of equal keys.
    pub fn is_stable(&self) -> bool {
        matches!(
            self,
            SortAlgorithm::Merge | SortAlgorithm::Insertion | SortAlgorithm::Bubble
        )
    }

    /// Sorts `items` by `cmp` using this algorithm.
    ///
    /// The `Copy` bound reflects every payload sorted here (candidate
    /// records, plain keys) and lets merge sort move elements through a
    /// flat scratch buffer instead of permuting through an index table.
    pub fn sort_by<T: Copy, F: FnMut(&T, &T) -> Ordering>(&self, items: &mut [T], mut cmp: F) {
        match self {
            SortAlgorithm::Merge => merge_sort(items, &mut cmp),
            SortAlgorithm::Quick => quick_sort(items, &mut cmp),
            SortAlgorithm::Heap => heap_sort(items, &mut cmp),
            SortAlgorithm::Insertion => insertion_sort(items, &mut cmp),
            SortAlgorithm::Selection => selection_sort(items, &mut cmp),
            SortAlgorithm::Bubble => bubble_sort(items, &mut cmp),
        }
    }
}

fn merge_sort<T: Copy, F: FnMut(&T, &T) -> Ordering>(items: &mut [T], cmp: &mut F) {
    let n = items.len();
    if n <= 1 {
        return;
    }
    // Bottom-up merge, ping-ponging between `items` and one flat scratch
    // buffer so each pass moves elements exactly once.
    let mut scratch = items.to_vec();
    let mut in_items = true;
    let mut width = 1;
    while width < n {
        if in_items {
            merge_pass(items, &mut scratch, width, cmp);
        } else {
            merge_pass(&scratch, items, width, cmp);
        }
        in_items = !in_items;
        width *= 2;
    }
    if !in_items {
        items.copy_from_slice(&scratch);
    }
}

/// Merges adjacent sorted runs of length `width` from `src` into `dst`.
fn merge_pass<T: Copy, F: FnMut(&T, &T) -> Ordering>(
    src: &[T],
    dst: &mut [T],
    width: usize,
    cmp: &mut F,
) {
    let n = src.len();
    let mut lo = 0;
    while lo < n {
        let mid = (lo + width).min(n);
        let hi = (lo + 2 * width).min(n);
        let (mut i, mut j, mut o) = (lo, mid, lo);
        while i < mid && j < hi {
            // `<=` keeps stability: left element wins ties.
            if cmp(&src[i], &src[j]) != Ordering::Greater {
                dst[o] = src[i];
                i += 1;
            } else {
                dst[o] = src[j];
                j += 1;
            }
            o += 1;
        }
        dst[o..o + (mid - i)].copy_from_slice(&src[i..mid]);
        let o2 = o + (mid - i);
        dst[o2..o2 + (hi - j)].copy_from_slice(&src[j..hi]);
        lo = hi;
    }
}

fn quick_sort<T, F: FnMut(&T, &T) -> Ordering>(items: &mut [T], cmp: &mut F) {
    if items.len() <= 1 {
        return;
    }
    let pivot = items.len() / 2;
    items.swap(pivot, items.len() - 1);
    let mut store = 0;
    for i in 0..items.len() - 1 {
        if cmp(&items[i], &items[items.len() - 1]) == Ordering::Less {
            items.swap(i, store);
            store += 1;
        }
    }
    let last = items.len() - 1;
    items.swap(store, last);
    let (left, right) = items.split_at_mut(store);
    quick_sort(left, cmp);
    quick_sort(&mut right[1..], cmp);
}

fn heap_sort<T, F: FnMut(&T, &T) -> Ordering>(items: &mut [T], cmp: &mut F) {
    let n = items.len();
    fn sift_down<T, F: FnMut(&T, &T) -> Ordering>(
        items: &mut [T],
        mut root: usize,
        end: usize,
        cmp: &mut F,
    ) {
        loop {
            let mut child = 2 * root + 1;
            if child >= end {
                break;
            }
            if child + 1 < end && cmp(&items[child], &items[child + 1]) == Ordering::Less {
                child += 1;
            }
            if cmp(&items[root], &items[child]) == Ordering::Less {
                items.swap(root, child);
                root = child;
            } else {
                break;
            }
        }
    }
    for start in (0..n / 2).rev() {
        sift_down(items, start, n, cmp);
    }
    for end in (1..n).rev() {
        items.swap(0, end);
        sift_down(items, 0, end, cmp);
    }
}

fn insertion_sort<T, F: FnMut(&T, &T) -> Ordering>(items: &mut [T], cmp: &mut F) {
    for i in 1..items.len() {
        let mut j = i;
        while j > 0 && cmp(&items[j - 1], &items[j]) == Ordering::Greater {
            items.swap(j - 1, j);
            j -= 1;
        }
    }
}

fn selection_sort<T, F: FnMut(&T, &T) -> Ordering>(items: &mut [T], cmp: &mut F) {
    for i in 0..items.len() {
        let mut min = i;
        for j in i + 1..items.len() {
            if cmp(&items[j], &items[min]) == Ordering::Less {
                min = j;
            }
        }
        items.swap(i, min);
    }
}

fn bubble_sort<T, F: FnMut(&T, &T) -> Ordering>(items: &mut [T], cmp: &mut F) {
    let n = items.len();
    for pass in 0..n {
        let mut swapped = false;
        for j in 1..n - pass {
            if cmp(&items[j - 1], &items[j]) == Ordering::Greater {
                items.swap(j - 1, j);
                swapped = true;
            }
        }
        if !swapped {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sorts(v: Vec<i64>) {
        let mut expected = v.clone();
        expected.sort_unstable();
        for algo in SortAlgorithm::ALL {
            let mut got = v.clone();
            algo.sort_by(&mut got, |a, b| a.cmp(b));
            assert_eq!(got, expected, "{} failed on {v:?}", algo.label());
        }
    }

    #[test]
    fn all_algorithms_sort_correctly() {
        check_sorts(vec![]);
        check_sorts(vec![1]);
        check_sorts(vec![2, 1]);
        check_sorts(vec![5, 3, 8, 1, 9, 2, 7, 4, 6, 0]);
        check_sorts(vec![1, 1, 1, 1]);
        check_sorts(vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]);
        check_sorts((0..100).rev().collect());
    }

    #[test]
    fn stable_sorts_preserve_tie_order() {
        // Pairs (key, original index); sort by key only.
        let v: Vec<(i32, usize)> = vec![(1, 0), (0, 1), (1, 2), (0, 3), (1, 4)];
        for algo in SortAlgorithm::ALL {
            if !algo.is_stable() {
                continue;
            }
            let mut got = v.clone();
            algo.sort_by(&mut got, |a, b| a.0.cmp(&b.0));
            assert_eq!(
                got,
                vec![(0, 1), (0, 3), (1, 0), (1, 2), (1, 4)],
                "{} violated stability",
                algo.label()
            );
        }
    }

    #[test]
    fn large_random_input() {
        use cpq_rng::Rng;
        let mut rng = Rng::seed_from_u64(5);
        let v: Vec<i64> = (0..2000)
            .map(|_| rng.random_range(-1000i64..1000))
            .collect();
        check_sorts(v);
    }
}
